"""Workload inputs for the spectough benchmark, built from a seed.

Each workload is one CLI invocation over one input.  ``build`` writes the
input files into a directory and returns a plan: the CLI arguments, the
number of graphs, and what the checker needs to know about the input.

Run as a script this builds one workload's input in a fresh interpreter;
that is the work ``setup_s`` times:

    python3 perfbench/inputs.py --workload corpus --seed 1 --out DIR
    python3 perfbench/inputs.py --corpus-sha256
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The acceptance corpus: tests/conftest.py builds the same 5,048 graphs.
CORPUS_SHA256 = "ede990d53c0671ae998b96e1dbcb75fdb68270561cae0768a907b7f72d2a8c84"
GNP_MASTER_SEED = 2024
GNP_TARGET = 4900

# cuts-n14: connected, non-complete G(14, p), equal shares per p.
CUTS_N = 14
CUTS_PS = (0.3, 0.5, 0.7)
CUTS_PER_P = 50

# hunt-hard: fixed hard families plus one seeded G(14, 0.3) batch.
HUNT_FIXED = ("kss1:2..6", "complete_multipartite:7,4,2",
              "complete_multipartite:7,3,3")
HUNT_FIXED_GRAPHS = 7  # five kss1 graphs and two multipartite ones
HUNT_GNP = "gnp:14,0.3"
HUNT_GNP_COUNT = 100

WORKLOADS = ("corpus", "corpus-j2", "cuts-n14", "hunt-hard")


def _partitions(n: int, max_part: int):
    if n == 0:
        yield []
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def corpus_lines() -> list[str]:
    """The acceptance corpus in its canonical order, as graph6 lines."""
    from spectough.graphs import (SplitMix64, complete_multipartite, cycle,
                                  gnp, path, write_graph6)

    graphs = []
    for n in range(3, 13):
        graphs += [cycle(n), path(n), complete_multipartite([n - 1, 1])]
    for n in range(3, 11):
        graphs += [complete_multipartite(sizes) for sizes in _partitions(n, n)
                   if 2 <= len(sizes) < n]
    seeder = SplitMix64(GNP_MASTER_SEED)
    found = 0
    i = 0
    while found < GNP_TARGET:
        g = gnp(5 + i % 8, 0.5, seeder.next_u64())
        i += 1
        if g.is_connected() and not g.is_complete():
            graphs.append(g)
            found += 1
    return [write_graph6(g) for g in graphs
            if g.is_connected() and not g.is_complete()]


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("".join(s + "\n" for s in lines).encode()).hexdigest()


def cuts_lines(seed: int) -> list[str]:
    """Connected, non-complete G(14, p) graphs, p cycling over CUTS_PS."""
    from spectough.graphs import SplitMix64, gnp, write_graph6

    seeder = SplitMix64(seed)
    lines = []
    for _ in range(CUTS_PER_P):
        for p in CUTS_PS:
            while True:
                g = gnp(CUTS_N, p, seeder.next_u64())
                if g.is_connected() and not g.is_complete():
                    lines.append(write_graph6(g))
                    break
    return lines


def build(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's input under ``out_dir`` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    plan: dict = {"workload": workload, "seed": seed}
    if workload == "hunt-hard":
        plan.update(kind="hunt", graphs=HUNT_FIXED_GRAPHS + HUNT_GNP_COUNT,
                    argv=["hunt", *HUNT_FIXED, HUNT_GNP, "--seed", str(seed),
                          "--count", str(HUNT_GNP_COUNT), "--findings-ok"])
    else:
        if workload == "cuts-n14":
            lines = cuts_lines(seed)
            jobs = 1
        else:
            lines = corpus_lines()
            digest = sha256_lines(lines)
            if digest != CORPUS_SHA256:
                raise RuntimeError(f"corpus SHA-256 {digest} is not the "
                                   f"fixed corpus {CORPUS_SHA256}")
            random.Random(seed).shuffle(lines)
            jobs = 2 if workload == "corpus-j2" else 1
        path = os.path.join(out_dir, "input.g6")
        with open(path, "w") as fh:
            fh.write("".join(s + "\n" for s in lines))
        plan.update(kind="scan", graphs=len(lines), input=path,
                    argv=["scan", path, "--jobs", str(jobs)])
    with open(os.path.join(out_dir, "plan.json"), "w") as fh:
        json.dump(plan, fh)
    return plan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="directory for the input and plan.json")
    ap.add_argument("--corpus-sha256", action="store_true",
                    help="print the SHA-256 of the canonical corpus and exit")
    args = ap.parse_args()
    sys.path.insert(0, SRC)
    import spectough  # noqa: F401  (setup_s includes the package import)

    if args.corpus_sha256:
        lines = corpus_lines()
        print(f"{sha256_lines(lines)}  {len(lines)} graphs")
        return 0
    if not args.workload or not args.out:
        ap.error("--workload and --out are required")
    build(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
