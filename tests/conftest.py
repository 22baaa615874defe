"""Shared fixtures: the verification corpus and its analysis records.

The corpus is the benchmark's acceptance corpus, built by
``perfbench/inputs.py`` (``corpus_lines``): every cycle/path/star up to
n=12, every complete multipartite graph up to n=10, and seeded random
graphs with n in 5..12, filtered to connected non-complete graphs
(5,048 in all).
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from spectough import KERNEL_BACKEND
from spectough.graphs import Graph, parse_graph6
from spectough.scan import ScanConfig, scan_lines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Environment for CLI subprocesses: they run this source tree even when
# the package is not installed.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def pytest_report_header(config):
    return f"spectough kernel backend: {KERNEL_BACKEND}"


def load_perfbench(name: str):
    """The benchmark script ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Graph]]:
    inputs = load_perfbench("inputs")
    lines = inputs.corpus_lines()
    assert inputs.sha256_lines(lines) == inputs.CORPUS_SHA256
    return [(g6, parse_graph6(g6)) for g6 in lines]


@pytest.fixture(scope="session")
def corpus_records(corpus) -> list[dict]:
    lines = [g6 for g6, _ in corpus]
    jobs = min(8, os.cpu_count() or 1)
    return list(scan_lines(lines, config=ScanConfig(), jobs=jobs))


@pytest.fixture(scope="session")
def analyzed_corpus(corpus, corpus_records):
    return list(zip((g for _, g in corpus), corpus_records))
