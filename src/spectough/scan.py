"""Per-graph analysis records, corpus scanning, and conjecture hunting.

One record per graph aggregates: spectrum summary, the three bounds,
the exact toughness certificate, case flags at the extremal cut,
eigenratio guarantees with oracle cross-checks, and a status:

    OK                  all bounds satisfied with room to spare
    NEAR-TIGHT          some slack within 1e-6 (tight or nearly-tight case)
    COUNTEREXAMPLE(bd0) conjectured bound violated -- a genuine finding
    VIOLATION(bd1|bd2)  a proven bound violated -- impossible absent a bug
    UNCHECKED(reason)   no bound compared: --no-toughness, or n over the
                        toughness cap (reason "no-toughness" or "cap")
    SKIPPED(reason)     parse failure / complete / disconnected input
    ERROR(type)         the analysis raised; type is the exception class
                        and the record's "error" field its message

Scans stream: each record is yielded as soon as it and every record
before it are done.  They are deterministic: records come in input order
regardless of worker count, and every field serializes identically
across runs.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from . import bounds, structures, toughness
from .errors import CapacityError, Graph6Error
from .graphs import Graph, parse_graph6, read_graph6_lines, write_graph6
from .spectra import spectrum

CSV_COLUMNS = [
    "graph6", "n", "edges", "mu2", "mun", "delta", "ratio", "toughness",
    "bd0", "bd1", "bd2", "slack0", "slack1", "slack2", "status",
]


@dataclass(frozen=True)
class ScanConfig:
    cap_toughness: int = toughness.DEFAULT_TOUGHNESS_CAP
    cap_oracle: int = structures.DEFAULT_ORACLE_CAP
    no_toughness: bool = False
    run_oracles: bool = True
    ab_pairs: tuple[tuple[int, int], ...] = ((1, 2), (2, 3))


def analyze_graph(g: Graph, g6: str | None = None,
                  config: ScanConfig = ScanConfig()) -> dict:
    """Full analysis record for one graph (plain dict, JSON-serializable)."""
    if g6 is None:
        g6 = write_graph6(g)
    rec = _record(g6, g.n, g.edge_count)
    if g.is_complete():
        rec.update(toughness="inf", status="SKIPPED(complete)")
        return rec
    if g.edge_count == 0 or not g.is_connected():
        rec.update(toughness="0", status="SKIPPED(disconnected)")
        return rec

    spec = spectrum(g)
    cert = None
    if not config.no_toughness and g.n <= config.cap_toughness:
        cert = toughness.exact_toughness(g, cap=config.cap_toughness)
    report = bounds.bound_report(g, spec, cert)
    rec.update(mu2=report.mu2, mun=report.mun, delta=report.delta,
               ratio=report.ratio, bd0=report.bd0, bd1=report.bd1,
               bd2=report.bd2, slack0=report.slack0, slack1=report.slack1,
               slack2=report.slack2)

    if cert is not None:
        rec["toughness"] = cert.value_str()
        rec["certificate"] = {
            "S": sorted(v for v in range(g.n) if cert.s_mask >> v & 1),
            "c": cert.c,
            "value": cert.value_str(),
        }
        flags = bounds.detect_prop2_cases(g, cert)
        rec["case_flags"] = {"i": flags.case_i, "ii": flags.case_ii,
                             "iii": flags.case_iii, "iv": flags.case_iv}

    items = structures.guarantees(g, spec, ab_pairs=config.ab_pairs)
    rec["guarantees"] = [_tag(item) for item in items]
    if config.run_oracles:
        for item in items:
            outcome = structures.verify_guarantee(g, item,
                                                  oracle_cap=config.cap_oracle)
            if outcome is not None:
                rec["oracle_results"][_tag(item)] = outcome

    rec["status"] = _status(report, config)
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


def _tag(item: structures.Guarantee) -> str:
    if item.params:
        inner = ",".join(f"{k}={v}" for k, v in sorted(item.params.items()))
        return f"{item.name}[{inner}]"
    return item.name


def _status(report: bounds.BoundReport, config: ScanConfig) -> str:
    if report.toughness is None:
        return ("UNCHECKED(no-toughness)" if config.no_toughness
                else "UNCHECKED(cap)")
    t = report.toughness.value_float_floor()
    if t + bounds.VIOLATION_SLACK < report.bd1:
        return "VIOLATION(bd1)"
    if t + bounds.VIOLATION_SLACK < report.bd2:
        return "VIOLATION(bd2)"
    if t + bounds.VIOLATION_SLACK < report.bd0:
        return "COUNTEREXAMPLE(bd0)"
    slacks = [s for s in (report.slack0, report.slack1, report.slack2)
              if s is not None and s != float("inf")]
    if slacks and min(slacks) <= bounds.VIOLATION_SLACK:
        return "NEAR-TIGHT"
    return "OK"


def record_to_jsonl(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"), sort_keys=False)


def record_to_csv_row(rec: dict) -> str:
    vals = []
    for col in CSV_COLUMNS:
        v = rec.get(col)
        vals.append("" if v is None else str(v))
    return ",".join(vals)


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
               jobs: int = 1) -> Iterator[dict]:
    """Analyze graph6 lines lazily; records come in input order."""
    payload = read_graph6_lines(lines)
    if jobs <= 1:
        for line in payload:
            yield scan_line(line, config)
        return
    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(functools.partial(scan_line, config=config),
                             payload, chunksize=16)


# ---------------------------------------------------------------------------
# hunting


@dataclass
class HuntFindings:
    scanned: int = 0
    bd0_counterexamples: list[dict] = field(default_factory=list)
    frontier_ratio: float | None = None
    frontier_graph6: str | None = None
    frontier_history: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "bd0_counterexamples": self.bd0_counterexamples,
            "non_hamiltonian_frontier": {
                "ratio": self.frontier_ratio,
                "graph6": self.frontier_graph6,
                "history": self.frontier_history,
            },
            "note": ("unbalanced complete bipartite graphs push the "
                     "non-Hamiltonian eigenratio frontier toward 1/2"),
        }


def hunt(graphs: list[tuple[str, Graph]],
         config: ScanConfig = ScanConfig()) -> HuntFindings:
    """Stream graphs through the analyzer, collecting conjecture evidence.

    Tracks two things: any violation of the conjectured bound bd0 (with
    full certificate), and the running maximum eigenratio over connected
    non-Hamiltonian graphs within the Hamilton oracle cap.
    """
    findings = HuntFindings()
    analyze_config = replace(config, run_oracles=False, ab_pairs=())
    for g6, g in graphs:
        rec = analyze_graph(g, g6=g6, config=analyze_config)
        findings.scanned += 1
        if rec["status"].startswith("SKIPPED"):
            continue
        if rec["status"] == "COUNTEREXAMPLE(bd0)":
            findings.bd0_counterexamples.append(rec)
        if g.n >= 3 and g.n <= config.cap_oracle:
            try:
                hamiltonian = structures.has_hamilton_cycle(
                    g, cap=config.cap_oracle)
            except CapacityError:
                hamiltonian = True  # unknown; never advances the frontier
            if not hamiltonian:
                ratio = rec["ratio"]
                if findings.frontier_ratio is None or ratio > findings.frontier_ratio:
                    findings.frontier_ratio = ratio
                    findings.frontier_graph6 = g6
                    findings.frontier_history.append(
                        {"graph6": g6, "ratio": ratio, "n": g.n})
    return findings
