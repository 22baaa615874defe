#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python reference.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]

The compiled side is the library built by
``python setup.py build_ext --inplace``.
"""

from __future__ import annotations

import argparse
import time

from spectough import _kernels
from spectough._kernels import _ref
from spectough.graphs import complete_multipartite, gnp


def bench(fn, args_list, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    tough_cases = [(g.n, g.adj) for g in
                   (gnp(13, 0.5, seed) for seed in range(8))
                   if g.is_connected() and not g.is_complete()]
    ham_cases = [(g.n, g.adj) for g in (gnp(14, 0.4, s) for s in range(20))]
    ham_cases.append((13, complete_multipartite([6, 7]).adj))  # hard negative

    compiled = _kernels.BACKEND == "compiled"
    rows = []
    for label, cases in (("toughness_search n=13", tough_cases),
                         ("hamilton_cycle n<=14", ham_cases)):
        name = label.split()[0]
        pure = bench(getattr(_ref, name), cases, args.repeat)
        if compiled:
            fast = bench(getattr(_kernels, name), cases, args.repeat)
            rows.append((label, pure, fast, pure / fast))
        else:
            rows.append((label, pure, None, None))

    print(f"{'kernel':30s} {'pure':>10s} {'compiled':>10s} {'speedup':>8s}")
    for label, pure, fast, ratio in rows:
        if fast is None:
            print(f"{label:30s} {pure:9.4f}s {'n/a':>10s} {'n/a':>8s}")
        else:
            print(f"{label:30s} {pure:9.4f}s {fast:9.4f}s {ratio:7.1f}x")
    if not compiled:
        print("compiled backend not built; only the reference timings shown")


if __name__ == "__main__":
    main()
