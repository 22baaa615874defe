"""Shared fixtures: the verification corpus and its analysis records.

The corpus is the deterministic stress-test population used across the
acceptance suite: every cycle/path/star up to n=12, every complete
multipartite graph up to n=10, and seeded random graphs with n in 5..12,
filtered to connected non-complete graphs (at least 5,000 total).
"""

from __future__ import annotations

import os

import pytest

from spectough import KERNEL_BACKEND
from spectough.graphs import (Graph, SplitMix64, complete_multipartite, cycle,
                              gnp, path, write_graph6)
from spectough.scan import ScanConfig, analyze_graph, scan_lines

GNP_MASTER_SEED = 2024
GNP_TARGET = 4900

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
# Environment for CLI subprocesses: they run this source tree even when
# the package is not installed.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def pytest_report_header(config):
    return f"spectough kernel backend: {KERNEL_BACKEND}"


def partitions(n: int, max_part: int | None = None):
    """Integer partitions of n in descending order."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield []
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield [first] + rest


def family_graphs() -> list[Graph]:
    graphs: list[Graph] = []
    for n in range(3, 13):
        graphs.append(cycle(n))
        graphs.append(path(n))
        graphs.append(complete_multipartite([n - 1, 1]))  # star K_{1,n-1}
    for n in range(3, 11):
        for sizes in partitions(n):
            if 2 <= len(sizes) < n:  # excludes K_n (all parts 1) and one block
                graphs.append(complete_multipartite(sizes))
    return graphs


def gnp_graphs(target: int = GNP_TARGET) -> list[Graph]:
    seeder = SplitMix64(GNP_MASTER_SEED)
    graphs: list[Graph] = []
    i = 0
    while len(graphs) < target:
        n = 5 + i % 8
        i += 1
        g = gnp(n, 0.5, seeder.next_u64())
        if g.is_connected() and not g.is_complete():
            graphs.append(g)
    return graphs


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Graph]]:
    graphs = family_graphs() + gnp_graphs()
    graphs = [g for g in graphs if g.is_connected() and not g.is_complete()]
    assert len(graphs) >= 5000
    return [(write_graph6(g), g) for g in graphs]


@pytest.fixture(scope="session")
def corpus_records(corpus) -> list[dict]:
    lines = [g6 for g6, _ in corpus]
    jobs = min(8, os.cpu_count() or 1)
    return list(scan_lines(lines, config=ScanConfig(), jobs=jobs))


@pytest.fixture(scope="session")
def analyzed_corpus(corpus, corpus_records):
    return list(zip((g for _, g in corpus), corpus_records))
