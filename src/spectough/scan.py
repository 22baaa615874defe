"""Per-graph analysis records, corpus scanning, and conjecture hunting.

One record per graph aggregates: spectrum summary, the three bounds,
the exact toughness certificate, case flags at the extremal cut,
eigenratio guarantees with oracle cross-checks, and a status.  The
status is decided in one place, ``_status``, from the finished record
and the toughness that ``analyze_graph`` rounds one ulp toward -inf:

    OK                  all bounds satisfied with room to spare
    NEAR-TIGHT          some slack within 1e-6 (tight or nearly-tight case)
    COUNTEREXAMPLE(bd0) conjectured bound violated -- a genuine finding
    VIOLATION(bd1|bd2)  a proven bound violated -- impossible absent a bug
    VIOLATION(tag)      an oracle refuted the eigenratio guarantee "tag"
                        (e.g. k-factor[k=2]) -- also a bug: each is a theorem
    UNCHECKED(cap)      no bound compared: n is over the toughness cap
                        (a cap of 0 skips the search for every graph)
    SKIPPED(reason)     parse failure / complete / disconnected input
    ERROR(type)         the analysis raised; type is the exception class
                        and the record's "error" field its message

Scans stream: each record is yielded as soon as it and every record
before it are done.  The first record is analyzed in the calling
process, so a pooled scan yields it before the worker pool starts, and
an input of zero or one graph starts no pool.  They are deterministic:
records come in input order regardless of worker count, and every field
serializes identically across runs.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterable, Iterator, NamedTuple

from . import bounds, structures, toughness
from .errors import Graph6Error
from .graphs import Graph, iter_bits, parse_graph6, read_graph6_lines
from .spectra import spectrum

CSV_COLUMNS = [
    "graph6", "n", "edges", "mu2", "mun", "delta", "ratio", "toughness",
    "bd0", "bd1", "bd2", "slack0", "slack1", "slack2", "status",
]


class ScanConfig(NamedTuple):
    """The one home of the cap defaults: the largest n each search runs on."""

    cap_toughness: int = 14
    cap_oracle: int = 16


def analyze_graph(g: Graph, g6: str,
                  config: ScanConfig = ScanConfig()) -> dict:
    """Full analysis record for one graph (plain dict, JSON-serializable);
    ``g6`` is its graph6 line, which the record carries as given."""
    rec = _record(g6, g.n, g.edge_count)
    if g.is_complete():
        rec.update(toughness="inf", status="SKIPPED(complete)")
        return rec
    if not g.is_connected():
        rec.update(toughness="0", status="SKIPPED(disconnected)")
        return rec

    spec = spectrum(g)
    rec.update(bounds.bound_report(g, spec))
    t = None
    if g.n <= config.cap_toughness:
        cert = toughness.exact_toughness(g)
        # one ulp toward -inf, so float noise cannot fabricate a violation
        t = math.nextafter(float(cert.value), -math.inf)
        value = str(cert.value)
        rec.update(
            toughness=value,
            slack0=t - rec["bd0"], slack1=t - rec["bd1"],
            slack2=t - rec["bd2"],
            certificate={
                "S": list(iter_bits(cert.s_mask)),
                "c": cert.c,
                "value": value,
            },
            case_flags=bounds.detect_prop2_cases(g, cert))

    items = structures.guarantees(g, spec)
    rec["guarantees"] = [item.tag for item in items]
    for item in items:
        outcome = structures.verify_guarantee(g, item,
                                              oracle_cap=config.cap_oracle)
        if outcome is not None:
            rec["oracle_results"][item.tag] = outcome

    rec["status"] = _status(rec, t)
    return rec


def _record(g6: str, n: int | None, edges: int | None) -> dict:
    """The record skeleton: every field, in output order, before analysis."""
    return {
        "graph6": g6,
        "n": n,
        "edges": edges,
        "mu2": None, "mun": None, "delta": None, "ratio": None,
        "toughness": None,
        "bd0": None, "bd1": None, "bd2": None,
        "slack0": None, "slack1": None, "slack2": None,
        "certificate": None,
        "case_flags": None,
        "guarantees": [],
        "oracle_results": {},
        "status": None,
    }


# A bound "fails" only if the (floor-rounded) exact toughness plus this
# absolute slack is still below the float bound.
VIOLATION_SLACK = 1e-6


def _status(rec: dict, t: float | None) -> str:
    """The verdict, from the record's bounds, slacks and oracle results
    and the floor-rounded toughness t (None when it was not computed)."""
    for name in ("bd1", "bd2"):
        if t is not None and t + VIOLATION_SLACK < rec[name]:
            return f"VIOLATION({name})"
    refuted = [tag for tag, ok in rec["oracle_results"].items() if not ok]
    if refuted:
        return f"VIOLATION({refuted[0]})"
    if t is None:
        return "UNCHECKED(cap)"
    if t + VIOLATION_SLACK < rec["bd0"]:
        return "COUNTEREXAMPLE(bd0)"
    if min(rec["slack0"], rec["slack1"], rec["slack2"]) <= VIOLATION_SLACK:
        return "NEAR-TIGHT"
    return "OK"


def record_to_jsonl(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"), sort_keys=False)


# ---------------------------------------------------------------------------
# corpus scan

def scan_line(line: str, config: ScanConfig) -> dict:
    """The record for one graph6 line; never raises for a bad graph."""
    try:
        g = parse_graph6(line)
    except Graph6Error as exc:
        rec = _record(line, None, None)
        rec.update(status="SKIPPED(parse)", error=str(exc))
        return rec
    try:
        return analyze_graph(g, g6=line, config=config)
    except Exception as exc:  # one bad graph must not lose the scan
        rec = _record(line, g.n, g.edge_count)
        rec.update(status=f"ERROR({type(exc).__name__})", error=str(exc))
        return rec


def scan_lines(lines: Iterable[str], config: ScanConfig = ScanConfig(),
               jobs: int = 1, stream: bool = False) -> Iterator[dict]:
    """Analyze graph6 lines lazily; records come in input order.

    The first record always comes from the calling process, so with
    ``jobs > 1`` it is out before the worker pool starts, and an input
    of zero or one graph starts no pool.  The pool takes lines in chunks
    of 16, or one at a time with ``stream`` (for input that can block,
    so that no record waits for a chunk to fill).  Both sizes are
    measured: on a regular file at two workers (perfbench's corpus-j2,
    2 cores), chunks of 1 cut throughput by about 30%, and chunks of 64
    read 1,634 graphs/s against 1,899 for 16 (medians of 8 runs).  If
    reading ``lines`` raises, every record of the lines read before
    comes first and then the exception, at any worker count."""
    payload = read_graph6_lines(lines)
    for line in payload:
        yield scan_line(line, config)
        if jobs > 1:
            break  # the pool takes the rest, if there is a rest
    second = next(payload, None)  # None once every line has been read
    if second is None:
        return
    # Imported here, not at the top: a --jobs 1 run starts no pool, and
    # this import is a large share of the CLI's start-up.
    import multiprocessing
    failed: list[Exception] = []

    def feed() -> Iterator[str]:
        # The pool draws lines in a thread of its own and would drop the
        # part-built chunk that an exception interrupts; hold the
        # exception until the records before it are out.
        try:
            yield second
            yield from payload
        except Exception as exc:
            failed.append(exc)

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(functools.partial(_scan_in_worker, config=config),
                             feed(), chunksize=1 if stream else 16)
    if failed:
        raise failed[0]


def _scan_in_worker(line: str, config: ScanConfig) -> dict:
    # The pool pickles its task function by name, which fails for a
    # wrapper swapped in for scan_line (a tracer or a test patch); this
    # name is never swapped, and it finds scan_line in the worker.
    return scan_line(line, config)


# ---------------------------------------------------------------------------
# hunting


def hunt(records: Iterable[dict], cap_oracle: int) -> dict:
    """Fold scan records into the findings document: every bd0
    counterexample, and the running maximum eigenratio over
    non-Hamiltonian graphs of order 3..cap_oracle.  The Hamilton search
    runs only for a ratio that would move that frontier, and not when the
    cut has |S| < c: a Hamiltonian graph is 1-tough (Chvatal, 1973)."""
    scanned = 0
    counterexamples: list[dict] = []
    history: list[dict] = []
    for scanned, rec in enumerate(records, 1):
        if rec["status"] == "COUNTEREXAMPLE(bd0)":
            counterexamples.append(rec)
        ratio, cert = rec["ratio"], rec["certificate"]
        if (ratio is None or not 3 <= rec["n"] <= cap_oracle
                or history and ratio <= history[-1]["ratio"]):
            continue
        if ((cert is None or len(cert["S"]) >= cert["c"])
                and structures.has_hamilton_cycle(parse_graph6(rec["graph6"]))):
            continue
        history.append({"graph6": rec["graph6"], "ratio": ratio,
                        "n": rec["n"]})
    frontier = history[-1] if history else {}
    return {
        "scanned": scanned,
        "bd0_counterexamples": counterexamples,
        "non_hamiltonian_frontier": {
            "ratio": frontier.get("ratio"),
            "graph6": frontier.get("graph6"),
            "history": history,
        },
        "note": ("unbalanced complete bipartite graphs push the "
                 "non-Hamiltonian eigenratio frontier toward 1/2"),
    }
