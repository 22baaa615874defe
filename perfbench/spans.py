"""Traced run: spans around the calls into each spectough layer.

The program is not edited.  ``Tracer.install`` swaps each layer's public
functions, at the module attribute its caller looks up, for a wrapper
that records a span (name, start, end, parent span, graph index) in
memory.  The workload's CLI command then runs in this process at
``--jobs 1``, and the spans are reduced to per-layer metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name).  A span whose name is in UNITS starts
# a new graph when it opens outside any other span.
TARGETS = (
    ("scan", "scan_line", "scan.line"),
    ("scan", "parse_graph6", "graphs.parse"),
    ("scan", "analyze_graph", "scan.analyze"),
    ("scan", "record_to_jsonl", "scan.encode"),
    ("spectra", "laplacian_matrix", "spectra.laplacian"),
    ("spectra", "jacobi_eigenvalues", "spectra.jacobi"),
    ("toughness", "exact_toughness", "toughness.cut_search"),
    ("bounds", "bound_report", "bounds.report"),
    ("bounds", "detect_prop2_cases", "bounds.prop2_cases"),
    ("structures", "guarantees", "structures.guarantees"),
    ("structures", "verify_guarantee", "structures.oracle"),
    ("structures", "has_hamilton_cycle", "structures.hamilton"),
    ("cli", "generate_family", "families.generate"),
)
UNITS = ("scan.line", "scan.analyze", "families.generate")

# verify_guarantee spans are split by the oracle the guarantee names.
ORACLE_KINDS = {
    "perfect-matching": "perfect_matching",
    "(1,1)-critical": "factor_critical",
    "(1,s)-critical": "factor_critical",
    "m-extendable": "m_extendable",
    "k-factor": "factor",
    "ab-factor": "factor",
    "spanning-tree": "spanning_tree",
}

# name -> unit of every per-layer metric the traced run reports.
PER_LAYER = {
    "graphs.parse.us_per_graph": "us",
    "spectra.laplacian.us_per_graph": "us",
    "spectra.jacobi.us_per_graph": "us",
    "spectra.jacobi.max_ms": "ms",
    "spectra.jacobi.calls": "count",
    "toughness.cut_search.us_per_graph": "us",
    "toughness.cut_search.max_ms": "ms",
    "toughness.cut_search.calls": "count",
    "bounds.report.us_per_graph": "us",
    "bounds.prop2_cases.us_per_graph": "us",
    "structures.guarantees.us_per_graph": "us",
    **{f"structures.oracle.{kind}.us_per_graph": "us"
       for kind in dict.fromkeys(ORACLE_KINDS.values())},
    "structures.oracle.calls": "count",
    "structures.oracle.decided": "count",
    "structures.hamilton.us_per_graph": "us",
    "structures.hamilton.max_ms": "ms",
    "structures.hamilton.calls": "count",
    "families.generate.us_per_graph": "us",
    "scan.analyze.self_us_per_graph": "us",
    "scan.encode.us_per_graph": "us",
    "scan.pool.cpu_overhead_ms_per_graph": "ms",
    "cli.import_s": "s",
    "kernels.toughness_search.ms": "ms",
    "kernels.hamilton_cycle.ms": "ms",
}


class Tracer:
    """Spans in memory: [name, start_ns, end_ns, parent index, graph]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.decided = 0
        self._stack: list[int] = []
        self._units: dict[str, int] = defaultdict(int)
        self._graph = -1
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None and name in UNITS:
            self._graph = self._units[name]
            self._units[name] += 1
        graph = self.spans[parent][4] if parent is not None else self._graph
        self.spans.append([name, time.perf_counter_ns(), None, parent, graph])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "structures.oracle":
            def traced(g, item, *args, **kwargs):
                index = self._open(f"{name}.{ORACLE_KINDS.get(item.oracle, 'none')}")
                try:
                    result = fn(g, item, *args, **kwargs)
                finally:
                    self._close(index)
                self.decided += result is not None
                return result
        elif name == "families.generate":
            def traced(*args, **kwargs):
                graphs = fn(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        g = next(graphs, None)
                    finally:
                        self._close(index)
                    if g is None:  # exhausted: that last span made no graph
                        del self.spans[index]
                        self._units[name] -= 1
                        return
                    yield g
        else:
            def traced(*args, **kwargs):
                index = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(index)
        return traced

    def install(self, modules: dict[str, object]) -> list[str]:
        """Wrap every target; returns the targets the program lacks."""
        missing = []
        for module, attr, name in TARGETS:
            owner = modules[module]
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return missing

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def metrics(self, graphs: int) -> dict[str, float]:
        """Per-layer metrics from the spans, per graph of the input."""
        total: dict[str, int] = defaultdict(int)
        longest: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            longest[name] = max(longest[name], end - start)
            calls[name] += 1
            if parent is not None:
                child_ns[parent] += end - start
        analyze_self = sum(end - start - child_ns[i]
                           for i, (name, start, end, _, _) in enumerate(self.spans)
                           if name == "scan.analyze")
        out = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "us_per_graph":
                out[metric] = total[layer] / 1e3 / graphs
            elif kind == "max_ms":
                out[metric] = longest[layer] / 1e6
            elif kind == "calls" and layer != "structures.oracle":
                out[metric] = calls[layer]
        out["structures.oracle.calls"] = sum(
            calls[f"structures.oracle.{kind}"] for kind in set(ORACLE_KINDS.values()))
        out["structures.oracle.decided"] = self.decided
        out["scan.analyze.self_us_per_graph"] = analyze_self / 1e3 / graphs
        return out


def kernel_metrics() -> dict[str, float]:
    """Direct kernel calls on the inputs of benchmarks/bench_kernels.py."""
    from spectough import _kernels
    from spectough.graphs import complete_multipartite, gnp

    tough = [(g.n, g.adj) for g in (gnp(13, 0.5, seed) for seed in range(8))
             if g.is_connected() and not g.is_complete()]
    ham = [(g.n, g.adj) for g in (gnp(14, 0.4, seed) for seed in range(20))]
    ham.append((13, complete_multipartite([6, 7]).adj))
    out = {}
    for name, cases in (("toughness_search", tough), ("hamilton_cycle", ham)):
        fn = getattr(_kernels, name)
        start = time.perf_counter()
        for args in cases:
            fn(*args)
        out[f"kernels.{name}.ms"] = (time.perf_counter() - start) * 1e3
    return out
