"""Command-line front end: analyze | scan | hunt | gen.

Exit codes: 0 clean, 1 findings (counterexample or violation), 2 usage
(an --output that names an input file included) and any OS error while
opening or reading a corpus, writing --output or stdout, or starting the
worker pool, reported as "<command>: <error>", 3 internal error (for
scan and hunt: any ERROR record, after every record is analyzed), 141
when the reader closes stdout early (as in ``spectough scan big.g6 |
head``): the run stops quietly with the status of a process killed by
SIGPIPE.  --findings-ok waives only bd0 counterexamples: a violation of a
proven bound or guarantee is a software bug and always exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
import time

from . import scan as scanmod
from .families import generate_family
from .graphs import parse_graph6, read_graph6_lines, write_graph6

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# While its corpus is a regular file, scan flushes stdout at most this
# often (seconds) instead of after every record.
STREAM_FLUSH_S = 0.05


def _add_caps(p: argparse.ArgumentParser) -> None:
    defaults = scanmod.ScanConfig()
    p.add_argument("--cap-toughness", type=int,
                   default=defaults.cap_toughness,
                   help="max n for the exact toughness search; 0 skips it "
                        f"(default {defaults.cap_toughness})")
    p.add_argument("--cap-oracle", type=int, default=defaults.cap_oracle,
                   help="max n for combinatorial oracles "
                        f"(default {defaults.cap_oracle})")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _add_jobs(p: argparse.ArgumentParser, default: int, note: str) -> None:
    p.add_argument("--jobs", type=int, default=default,
                   help=f"worker processes (default {note}); records keep "
                        "input order, so the output is the same for any count")


def _add_findings_ok(p: argparse.ArgumentParser) -> None:
    p.add_argument("--findings-ok", action="store_true",
                   help="exit 0 on bd0 counterexamples (never on violations)")


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
    _add_jobs(p, 1, "1")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--output", help="output path (default stdout)")
    _add_findings_ok(p)
    _add_caps(p)

    p = sub.add_parser("hunt", help="hunt counterexamples and tight cases")
    p.add_argument("specs", nargs="+",
                   help="family specs (kss1:2..6, gnp:10,0.5) or corpus "
                        "paths; a spec is a path when it contains '/', ends "
                        "in .g6 or starts with file: (file:NAME reads NAME)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100,
                   help="graphs per random spec (default 100)")
    p.add_argument("--budget", type=int, default=100000,
                   help="max graphs to examine in total")
    p.add_argument("--output", help="findings JSON path (default stdout)")
    cores = _usable_cores()
    _add_jobs(p, cores, f"the usable cores, here {cores}")
    _add_findings_ok(p)
    _add_caps(p)

    p = sub.add_parser("gen", help="generate graph6 lines for a family")
    p.add_argument("family", help="family name")
    p.add_argument("params", nargs="*",
                   help="family parameters, e.g. 3..6 or 8 0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1,
                   help="graphs to draw for gnp (default 1); other families "
                        "print all their graphs and ignore it")
    p.add_argument("--output", help="output path (default stdout)")
    return ap


def _config(args: argparse.Namespace) -> scanmod.ScanConfig:
    return scanmod.ScanConfig(cap_toughness=args.cap_toughness,
                              cap_oracle=args.cap_oracle)


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
            g = next(generate_family(args.family, seed=args.seed), None)
            if g is None:
                raise ValueError(f"family spec {args.family!r} yields no graph")
        else:
            g = parse_graph6(args.graph6)
        g6 = write_graph6(g)  # n > 62 is bad input, not an internal error
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE
    counts: dict[str, int] = {}
    rec = scanmod.analyze_graph(g, g6, config=_config(args))
    for rec in _reported("analyze", [rec], counts):
        if args.format == "json":
            print(scanmod.record_to_jsonl(rec))
        else:
            _pretty(rec, sys.stdout)
    return _exit_code("analyze", counts, False)


def _reported(prog: str, records, counts: dict[str, int]):
    """Pass records through, counting each status kind and reporting
    violations, counterexamples and errors on stderr."""
    for rec in records:
        kind = rec["status"].split("(")[0]
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "VIOLATION":
            print(f"{prog}: PROVEN BOUND VIOLATED (software bug) -- "
                  "diagnostic dump:", file=sys.stderr)
            print(scanmod.record_to_jsonl(rec), file=sys.stderr)
        elif kind == "COUNTEREXAMPLE":
            print(f"{prog}: conjecture counterexample candidate "
                  f"{rec['graph6']}", file=sys.stderr)
        elif kind == "ERROR":
            print(f"{prog}: {rec['status']} on {rec['graph6']}: "
                  f"{rec['error']}", file=sys.stderr)
        yield rec


def _exit_code(prog: str, counts: dict[str, int], findings_ok: bool) -> int:
    """Print the summary line and return the exit code for the counts."""
    print(f"{prog}: {sum(counts.values())} records "
          f"{json.dumps(counts, sort_keys=True)}", file=sys.stderr)
    if "ERROR" in counts:
        return EXIT_INTERNAL
    if "VIOLATION" in counts or ("COUNTEREXAMPLE" in counts
                                 and not findings_ok):
        return EXIT_FINDINGS
    return EXIT_OK


def _open_corpus(path: str):
    """A corpus file as text that no byte can fail to decode: an invalid
    byte becomes U+FFFD, which parse_graph6 rejects as non-ASCII, so the
    line gets a SKIPPED(parse) record and the rest of the file is read."""
    return open(path, encoding="utf-8", errors="replace")


def _corpus_path(spec: str) -> str | None:
    """The file a hunt spec names, or None for a family spec."""
    if "/" in spec or spec.endswith(".g6") or spec.startswith("file:"):
        return spec.removeprefix("file:")
    return None


def _output_is_input(prog: str, output: str | None, inputs) -> bool:
    """Whether --output names one of the input files, reported on stderr:
    opening it for writing would truncate the corpus before it is read."""
    if output is None or not os.path.exists(output):
        return False  # nothing to overwrite
    for path in inputs:
        if os.path.exists(path) and os.path.samefile(output, path):
            print(f"{prog}: --output {output} is the input file {path}",
                  file=sys.stderr)
            return True
    return False


def _can_block(corpus) -> bool:
    """Whether reading the corpus can wait on a writer: anything but a
    regular file (a pipe, a FIFO, a terminal)."""
    return not stat.S_ISREG(os.fstat(corpus.fileno()).st_mode)


def _record_flusher(out, can_block: bool):
    """The call cmd_scan makes after each record it writes to stdout.

    A reader on a pipe gets the first record at once and each later one
    within STREAM_FLUSH_S plus the next record's analysis.  A flush per
    record would wake the reader, and preempt the scan, once per record.
    A corpus that can block (``can_block``, from ``_can_block``) flushes
    every record, so none waits on input that may never come.
    """
    interval = 0.0 if can_block else STREAM_FLUSH_S
    due = 0.0

    def flush() -> None:
        nonlocal due
        now = time.monotonic()
        if now >= due:
            out.flush()
            due = now + interval
    return flush


def cmd_scan(args: argparse.Namespace) -> int:
    if _output_is_input("scan", args.output, [args.corpus]):
        return EXIT_USAGE
    counts: dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        corpus = stack.enter_context(_open_corpus(args.corpus))
        out = (stack.enter_context(open(args.output, "w"))
               if args.output else sys.stdout)
        # stdout gets each record of a corpus that can block as it comes
        stream = out is sys.stdout and _can_block(corpus)
        records = scanmod.scan_lines(corpus, config=_config(args),
                                     jobs=args.jobs, stream=stream)
        if args.format == "csv":
            import csv  # here, not at the top: a JSONL run never needs it
            write_csv = csv.writer(out, lineterminator="\n").writerow
        # a pipe is block-buffered: stream it; --output is written in blocks
        flush = (_record_flusher(out, stream) if out is sys.stdout
                 else lambda: None)
        for rec in _reported("scan", records, counts):
            if args.format == "csv":
                write_csv([rec.get(col) for col in scanmod.CSV_COLUMNS])
            else:
                out.write(scanmod.record_to_jsonl(rec) + "\n")
            flush()
    return _exit_code("scan", counts, args.findings_ok)


def cmd_hunt(args: argparse.Namespace) -> int:
    paths = [_corpus_path(spec) for spec in args.specs]
    if _output_is_input("hunt", args.output, filter(None, paths)):
        return EXIT_USAGE
    counts: dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        try:
            # every input first: a bad spec or a missing corpus must not
            # truncate --output
            sources = []
            for spec, path in zip(args.specs, paths):
                if path is not None:
                    sources.append(stack.enter_context(_open_corpus(path)))
                else:
                    sources.append(map(write_graph6, generate_family(
                        spec, seed=args.seed, count=args.count)))
            out = (stack.enter_context(open(args.output, "w"))
                   if args.output else sys.stdout)
            lines = itertools.islice(
                read_graph6_lines(itertools.chain(*sources)), args.budget)
            records = scanmod.scan_lines(lines, config=_config(args),
                                         jobs=args.jobs)
            findings = scanmod.hunt(_reported("hunt", records, counts),
                                    cap_oracle=args.cap_oracle)
        except ValueError as exc:
            # scan_line turns every per-graph fault into a record, so this
            # is a bad spec: an unknown family, or a family parameter that
            # fails when a graph is drawn.  main reports OS errors.
            print(f"hunt: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(json.dumps(findings, indent=2), file=out)
    return _exit_code("hunt", counts, args.findings_ok)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = args.family
    if args.params:
        spec += ":" + ",".join(args.params)
    with contextlib.ExitStack() as stack:
        try:
            graphs = generate_family(spec, seed=args.seed, count=args.count)
            out = (stack.enter_context(open(args.output, "w"))
                   if args.output else sys.stdout)
            for g in graphs:
                out.write(write_graph6(g) + "\n")
        except ValueError as exc:
            print(f"gen: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "scan": cmd_scan,
               "hunt": cmd_hunt, "gen": cmd_gen}[args.command]
    for flag, least in (("jobs", 1), ("count", 0), ("budget", 0),
                        ("cap_toughness", 0), ("cap_oracle", 0)):
        if getattr(args, flag, least) < least:
            print(f"{args.command}: --{flag.replace('_', '-')} must be at "
                  f"least {least}", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the interpreter's
        # last flush writes nowhere instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # a corpus, --output or stdout, or the pool
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # anything unplanned is an internal error
        print(f"spectough: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
