"""Spectral lower bounds on toughness and the case analysis at an
extremal cut.

Three bounds are evaluated per graph:

    bd0 = mu2 / (mun - delta)          (conjectured; violations are findings)
    bd1 = mun * mu2 / (n * (mun - delta))
    bd2 = mu2 / (mun - mu2)            (+inf for complete graphs)

bd1 and bd2 are theorems, so a genuine violation means a software bug.
Both functions here return record fields; the verdict that compares them
with the toughness is decided in ``scan._status``.
"""

from __future__ import annotations

import math

from .graphs import Graph, components_after_removal
from .spectra import Spectrum
from .toughness import ToughnessCertificate


def bound_report(g: Graph, s: Spectrum) -> dict:
    """The record's spectral fields: mu2, mun, delta, ratio and the bounds."""
    if g.edge_count == 0:
        raise ValueError("bounds need at least one edge")
    delta = g.min_degree()
    gap = s.mun - delta
    if gap < 1.0 - s.tol:
        # mun >= dmax + 1 >= delta + 1 always holds; anything less is a solver fault
        raise ArithmeticError(
            f"mun - delta = {gap} < 1; eigensolver fault suspected")
    spread = s.mun - s.mu2
    return {"mu2": s.mu2, "mun": s.mun, "delta": delta, "ratio": s.ratio,
            "bd0": s.mu2 / gap, "bd1": s.mun * s.mu2 / (g.n * gap),
            "bd2": math.inf if spread <= s.tol else s.mu2 / spread}


def _subset_sum_hits(sizes: list[int], target: int) -> bool:
    """Does some nonempty subset of the positive sizes sum to target >= 1?"""
    sums = {0}
    for v in sizes:
        sums |= {s + v for s in sums}
    return target in sums


def detect_prop2_cases(g: Graph, cert: ToughnessCertificate) -> dict[str, bool]:
    """Which of the four proven cases (i)-(iv) hold at the extremal cut."""
    comps = components_after_removal(g, cert.s_mask)
    sizes = [m.bit_count() for m in comps]
    rest = g.n - cert.s_mask.bit_count()
    return {"i": not g.complement().is_connected(),
            "ii": rest == cert.c,
            "iii": rest % 2 == 0 and _subset_sum_hits(sizes, rest // 2),
            "iv": cert.c == 2}
