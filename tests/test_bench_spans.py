"""The traced benchmark (perfbench/spans.py) names program functions and
guarantee oracles by string; these tests fail on a rename that would
otherwise only show up as a missing target or as zeroed metrics."""

import importlib

from spectough import structures
from spectough.graphs import (complete_multipartite, cycle, gnp, path,
                              petersen)
from spectough.spectra import spectrum
from spectough.structures import guarantees
from tests.conftest import load_perfbench


def test_every_target_resolves():
    spans = load_perfbench("spans")
    missing = [f"{module}.{attr}" for module, attr, _ in spans.TARGETS
               if not hasattr(importlib.import_module(f"spectough.{module}"),
                              attr)]
    assert missing == []


def test_every_oracle_has_a_kind():
    spans = load_perfbench("spans")
    graphs = [cycle(4), cycle(5), cycle(6), path(5), petersen(),
              petersen().complement(), complete_multipartite([2, 2, 2]),
              complete_multipartite([2, 2, 1]),
              complete_multipartite([2, 2, 2, 2, 2])]
    graphs += [g for g in (gnp(n, 0.7, seed) for n in range(5, 11)
                           for seed in range(5))
               if g.is_connected() and not g.is_complete()]
    oracles = {item.oracle for g in graphs for item in guarantees(g, spectrum(g))}
    assert oracles - {None} - set(spans.ORACLE_KINDS) == set()
    assert set(spans.ORACLE_KINDS) <= oracles  # the sample reaches every kind
    assert set(structures.ORACLES) == set(spans.ORACLE_KINDS)
