"""Command-line front end: analyze | scan | hunt | gen.

Exit codes: 0 clean, 1 findings (counterexample or violation), 2 usage,
3 internal error (for scan: any ERROR record, after every record is
written).  --findings-ok waives only bd0 counterexamples: a violation of
a proven bound is a software bug and always exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from . import scan as scanmod
from .errors import CapacityError, Graph6Error
from .families import generate_family
from .graphs import parse_graph6, read_graph6_lines, write_graph6
from .structures import DEFAULT_ORACLE_CAP
from .toughness import DEFAULT_TOUGHNESS_CAP

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _add_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap-toughness", type=int, default=DEFAULT_TOUGHNESS_CAP,
                   help="max n for the exact toughness search "
                        f"(default {DEFAULT_TOUGHNESS_CAP})")
    p.add_argument("--cap-oracle", type=int, default=DEFAULT_ORACLE_CAP,
                   help="max n for combinatorial oracles "
                        f"(default {DEFAULT_ORACLE_CAP})")
    p.add_argument("--no-toughness", action="store_true",
                   help="skip the exponential toughness search and slacks")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spectough",
        description="Exact toughness, Laplacian spectra, and spectral "
                    "bound verification for small graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one graph")
    p.add_argument("graph6", nargs="?", help="graph6 string")
    p.add_argument("--family", help="family spec, e.g. petersen or cycle:5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    _add_caps(p)

    p = sub.add_parser("scan", help="scan a graph6 corpus file")
    p.add_argument("corpus", help="path to graph6 lines ('#' comments ok)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--findings-ok", action="store_true",
                   help="exit 0 on bd0 counterexamples (never on violations)")
    _add_caps(p)

    p = sub.add_parser("hunt", help="hunt counterexamples and tight cases")
    p.add_argument("specs", nargs="+",
                   help="family specs (kss1:2..6, gnp:10,0.5) or corpus paths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100,
                   help="graphs per random spec (default 100)")
    p.add_argument("--budget", type=int, default=100000,
                   help="max graphs to examine in total")
    p.add_argument("--output", help="findings JSON path (default stdout)")
    p.add_argument("--findings-ok", action="store_true")
    _add_caps(p)

    p = sub.add_parser("gen", help="generate graph6 lines for a family")
    p.add_argument("family", help="family name")
    p.add_argument("params", nargs="*",
                   help="family parameters, e.g. 3..6 or 8 0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--output", help="output path (default stdout)")
    return ap


def _config(args: argparse.Namespace) -> scanmod.ScanConfig:
    return scanmod.ScanConfig(cap_toughness=args.cap_toughness,
                              cap_oracle=args.cap_oracle,
                              no_toughness=args.no_toughness)


def _pretty(rec: dict, out) -> None:
    print(f"graph6      {rec['graph6']}", file=out)
    print(f"order/edges {rec['n']} / {rec['edges']}", file=out)
    if rec["mu2"] is not None:
        print(f"mu2 mun     {rec['mu2']:.9g} {rec['mun']:.9g} "
              f"(delta {rec['delta']}, ratio {rec['ratio']:.9g})", file=out)
        print(f"bounds      bd0 {rec['bd0']:.9g}  bd1 {rec['bd1']:.9g}  "
              f"bd2 {rec['bd2']:.9g}", file=out)
    print(f"toughness   {rec['toughness']}", file=out)
    if rec["certificate"]:
        cert = rec["certificate"]
        print(f"cut         S={cert['S']} c={cert['c']}", file=out)
    if rec["case_flags"]:
        flags = ",".join(k for k, v in rec["case_flags"].items() if v) or "none"
        print(f"cases       {flags}", file=out)
    if rec["guarantees"]:
        print(f"guarantees  {', '.join(rec['guarantees'])}", file=out)
    for name, ok in rec["oracle_results"].items():
        print(f"oracle      {name}: {'confirmed' if ok else 'REFUTED'}", file=out)
    print(f"status      {rec['status']}", file=out)


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.graph6 is None) == (args.family is None):
        print("analyze: give exactly one of a graph6 string or --family",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.family:
            g = next(generate_family(args.family, seed=args.seed))
        else:
            g = parse_graph6(args.graph6)
        rec = scanmod.analyze_graph(g, config=_config(args))
    except (Graph6Error, CapacityError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(scanmod.record_to_jsonl(rec))
    else:
        _pretty(rec, sys.stdout)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print("scan: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    counts: dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        try:
            corpus = stack.enter_context(open(args.corpus))
            out = (stack.enter_context(open(args.output, "w"))
                   if args.output else sys.stdout)
        except OSError as exc:
            print(f"scan: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for rec in scanmod.scan_lines(corpus, config=_config(args),
                                      jobs=args.jobs):
            if args.format == "csv":
                out.write(scanmod.record_to_csv_row(rec) + "\n")
            else:
                out.write(scanmod.record_to_jsonl(rec) + "\n")
            kind = rec["status"].split("(")[0]
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "VIOLATION":
                print("scan: PROVEN BOUND VIOLATED (software bug) -- "
                      "diagnostic dump:", file=sys.stderr)
                print(scanmod.record_to_jsonl(rec), file=sys.stderr)
            elif kind == "COUNTEREXAMPLE":
                print(f"scan: conjecture counterexample candidate "
                      f"{rec['graph6']}", file=sys.stderr)
            elif kind == "ERROR":
                print(f"scan: {rec['status']} on {rec['graph6']}: "
                      f"{rec['error']}", file=sys.stderr)

    print(f"scan: {sum(counts.values())} records "
          f"{json.dumps(counts, sort_keys=True)}", file=sys.stderr)
    if "ERROR" in counts:
        return EXIT_INTERNAL
    if "VIOLATION" in counts or ("COUNTEREXAMPLE" in counts
                                 and not args.findings_ok):
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_hunt(args: argparse.Namespace) -> int:
    graphs = []
    try:
        for spec in args.specs:
            left = args.budget - len(graphs)
            if "/" in spec or spec.endswith(".g6") or spec.startswith("file:"):
                path = spec.removeprefix("file:")
                with open(path) as fh:
                    for line in itertools.islice(read_graph6_lines(fh), left):
                        graphs.append((line, parse_graph6(line)))
            else:
                family = generate_family(spec, seed=args.seed, count=args.count)
                for g in itertools.islice(family, left):
                    graphs.append((write_graph6(g), g))
            if len(graphs) >= args.budget:
                break
    except (OSError, Graph6Error, ValueError) as exc:
        print(f"hunt: {exc}", file=sys.stderr)
        return EXIT_USAGE
    findings = scanmod.hunt(graphs, config=_config(args))
    doc = json.dumps(findings.to_dict(), indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    if findings.bd0_counterexamples and not args.findings_ok:
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    spec = args.family
    if args.params:
        spec += ":" + ",".join(args.params)
    try:
        lines = [write_graph6(g)
                 for g in generate_family(spec, seed=args.seed, count=args.count)]
    except (ValueError, Graph6Error) as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write("".join(line + "\n" for line in lines))
        else:
            for line in lines:
                print(line)
    except OSError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "scan": cmd_scan,
               "hunt": cmd_hunt, "gen": cmd_gen}[args.command]
    try:
        return handler(args)
    except Exception as exc:  # anything unplanned is an internal error
        print(f"spectough: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
