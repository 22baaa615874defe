"""Checks of spectough's output that do not come from the program.

Graphs are decoded with networkx, spectra come from LAPACK
(``numpy.linalg.eigvalsh``), toughness is checked against theorems,
closed forms of known families and, on a fixed sample of small graphs,
an exhaustive search written here.  Each check that fails counts its
graph as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import networkx as nx
import numpy as np
from networkx.algorithms import approximation

# Jacobi and LAPACK agree to ~1e-13 on these orders; this is the stated
# tolerance for mu2 and mun, scaled by max(1, mun).
EIG_TOL = 1e-8
# Relative tolerance for bd0/bd1/bd2 recomputed from the LAPACK values.
BOUND_RTOL = 1e-7
# The program's own slack for comparing exact toughness with float bounds.
THEOREM_SLACK = 1e-6
# Graphs with n <= BRUTE_MAX_N whose graph6 hashes to 0 mod BRUTE_EVERY
# get an exhaustive toughness search: a sample fixed by the graph alone.
BRUTE_MAX_N = 10
BRUTE_EVERY = 64
# What a record with missing, mistyped or undecodable fields raises.
MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError,
             nx.NetworkXException)


def decode(g6: str) -> nx.Graph:
    return nx.from_graph6_bytes(g6.encode("ascii"))


def adjacency_masks(g: nx.Graph) -> list[int]:
    masks = [0] * g.number_of_nodes()
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def laplacian_eigenvalues(g: nx.Graph) -> np.ndarray:
    n = g.number_of_nodes()
    a = nx.to_numpy_array(g, nodelist=range(n))
    return np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)


def count_components(masks: list[int], removed: int) -> int:
    rest = ((1 << len(masks)) - 1) & ~removed
    count = 0
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = masks[low.bit_length() - 1] & rest & ~comp
            comp |= new
            frontier |= new
        rest &= ~comp
        count += 1
    return count


def brute_toughness(masks: list[int]) -> Fraction:
    """min |S| / c(G - S) over every S that disconnects G (no pruning)."""
    n = len(masks)
    best = None
    for s in range(1, 1 << n):
        k = s.bit_count()
        if k > n - 2:
            continue
        c = count_components(masks, s)
        if c >= 2 and (best is None or Fraction(k, c) < best):
            best = Fraction(k, c)
    if best is None:
        raise ValueError("complete graphs have no cut")
    return best


def closed_form_toughness(g: nx.Graph) -> Fraction | None:
    """Exact toughness of a cycle, path, star or complete multipartite graph."""
    n = g.number_of_nodes()
    degrees = [d for _, d in g.degree()]
    if all(d == 2 for d in degrees) and nx.is_connected(g):
        return Fraction(1)  # cycle (C4 = K_{2,2} agrees)
    if n >= 3 and g.number_of_edges() == n - 1 and nx.is_connected(g):
        if max(degrees) == n - 1:
            return Fraction(1, n - 1)  # star
        if max(degrees) == 2:
            return Fraction(1, 2)  # path
    comp = nx.complement(g)
    groups = list(nx.connected_components(comp))
    n1 = max(len(c) for c in groups)
    if len(groups) >= 2 and n1 >= 2 and all(
            comp.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2
            for c in groups):
        return Fraction(n - n1, n1)  # complete multipartite K_{n1 >= ...}
    return None


def in_brute_sample(g6: str, n: int) -> bool:
    digest = int(hashlib.sha256(g6.encode()).hexdigest()[:8], 16)
    return n <= BRUTE_MAX_N and digest % BRUTE_EVERY == 0


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_record(g6: str, rec: dict, brute: bool | None = None) -> list[str]:
    """Reasons the scan record for input line ``g6`` is wrong; [] if none."""
    try:
        return _check_record(g6, rec, brute)
    except MALFORMED as exc:
        return [f"malformed record: {type(exc).__name__}: {exc}"]


def _check_record(g6: str, rec: dict, brute: bool | None) -> list[str]:
    bad = []
    if rec.get("graph6") != g6:
        return [f"record for {rec.get('graph6')!r} where {g6!r} was expected"]
    g = decode(g6)
    n = g.number_of_nodes()
    delta = min(d for _, d in g.degree())
    if (rec["n"], rec["edges"], rec["delta"]) != (n, g.number_of_edges(), delta):
        bad.append("n, edges or delta differ from the networkx decode")

    w = laplacian_eigenvalues(g)
    mu2, mun = float(w[1]), float(w[-1])
    tol = EIG_TOL * max(1.0, mun)
    if abs(rec["mu2"] - mu2) > tol or abs(rec["mun"] - mun) > tol:
        bad.append(f"mu2/mun {rec['mu2']}/{rec['mun']} differ from LAPACK "
                   f"{mu2}/{mun}")
    spread = mun - mu2
    want = {"bd0": mu2 / (mun - delta),
            "bd1": mun * mu2 / (n * (mun - delta)),
            "bd2": math.inf if spread <= 1e-9 * n else mu2 / spread,
            "ratio": mu2 / mun}
    for key, value in want.items():
        if not _close(float(rec[key]), value, BOUND_RTOL):
            bad.append(f"{key} {rec[key]} differs from {value}")

    cert = rec["certificate"]
    t = Fraction(cert["value"])
    size, c = len(cert["S"]), cert["c"]
    masks = adjacency_masks(g)
    if rec["toughness"] != cert["value"] or t != Fraction(size, c):
        bad.append("toughness is not |S|/c of its certificate")
    if (sorted(set(cert["S"])) != cert["S"] or not 0 < size < n
            or not all(0 <= v < n for v in cert["S"])):
        bad.append("certificate S is not a proper vertex set")
    else:
        h = g.copy()
        h.remove_nodes_from(cert["S"])
        if c < 2 or nx.number_connected_components(h) != c:
            bad.append("certificate S does not leave c components")
        # The approximation is a lower bound on kappa; the exact flow
        # computation runs only when that bound does not already suffice.
        if (2 * size > approximation.node_connectivity(g) * c
                and 2 * size > nx.node_connectivity(g) * c):
            bad.append("|S|/c exceeds kappa/2")
    t_float = t.numerator / t.denominator
    for key in ("bd1", "bd2"):
        if t_float + THEOREM_SLACK < want[key]:
            bad.append(f"toughness {t} below the theorem bound {key}")

    slacks = [t_float - want[key] for key in ("bd0", "bd1", "bd2")
              if math.isfinite(want[key])]
    expected = "NEAR-TIGHT" if min(slacks) <= THEOREM_SLACK else "OK"
    if t_float + THEOREM_SLACK < want["bd0"]:
        expected = "COUNTEREXAMPLE(bd0)"
    if rec["status"] != expected:
        bad.append(f"status {rec['status']} where {expected} was expected")
    if not all(v is True for v in rec["oracle_results"].values()):
        bad.append("an oracle refuted a guarantee")

    closed = closed_form_toughness(g)
    if closed is not None and closed != t:
        bad.append(f"toughness {t} differs from the closed form {closed}")
    if brute is None:
        brute = in_brute_sample(g6, n)
    if brute and brute_toughness(masks) != t:
        bad.append(f"toughness {t} is not optimal")
    return bad


def check_scan(lines: list[str], out: bytes) -> list[list[str]]:
    """Per input line, the reasons its record in ``out`` is wrong."""
    try:
        text = out.decode("utf-8")
    except UnicodeDecodeError:
        return [["output is not UTF-8"]] * len(lines)
    rows = text.split("\n")
    if rows[-1] != "" or len(rows) - 1 != len(lines):
        return [[f"{len(rows) - 1} output lines for {len(lines)} graphs"]] * len(lines)
    result = []
    for g6, row in zip(lines, rows):
        try:
            rec = json.loads(row)
        except ValueError:
            result.append(["record is not JSON"])
            continue
        result.append(check_record(g6, rec))
    return result


# ---------------------------------------------------------------------------
# hunt


def held_karp_hamiltonian(masks: list[int]) -> bool:
    """Hamilton cycle by Held-Karp dynamic programming over vertex subsets."""
    n = len(masks)
    full = (1 << n) - 1
    ends = [0] * (1 << n)  # ends[m]: endpoints of paths from 0 covering m
    ends[1] = 1
    for m in range(1, full + 1, 2):
        e = ends[m]
        while e:
            low = e & -e
            e ^= low
            step = masks[low.bit_length() - 1] & ~m
            while step:
                nxt = step & -step
                step ^= nxt
                ends[m | nxt] |= nxt
    return bool(ends[full] & masks[0])


def non_hamiltonian(g: nx.Graph) -> bool:
    """True when a certificate or an exhaustive DP rules out a Hamilton cycle."""
    n = g.number_of_nodes()
    if n < 3 or not nx.is_biconnected(g):
        return True
    clique, _ = nx.max_weight_clique(nx.complement(g), weight=None)
    if 2 * len(clique) > n:
        return True  # an independent set larger than n/2
    return not held_karp_hamiltonian(adjacency_masks(g))


def k67_ratio() -> float:
    w = laplacian_eigenvalues(nx.complete_bipartite_graph(6, 7))
    return float(w[1] / w[-1])


def check_hunt(out: bytes, graphs: int) -> tuple[list[str], list[str]]:
    """Reasons the hunt output is wrong: (for the whole run, per finding)."""
    try:
        return _check_hunt(out, graphs)
    except MALFORMED as exc:
        return [f"hunt output is malformed: {type(exc).__name__}: {exc}"], []


def _check_hunt(out: bytes, graphs: int) -> tuple[list[str], list[str]]:
    doc = json.loads(out)
    frontier = doc["non_hamiltonian_frontier"]
    history = frontier["history"]
    whole, each = [], []
    if doc["scanned"] != graphs:
        whole.append(f"scanned {doc['scanned']} of {graphs} graphs")
    ratios = [h["ratio"] for h in history]
    if not history or any(b <= a for a, b in zip(ratios, ratios[1:])):
        whole.append("frontier history is empty or not strictly increasing")
    elif (frontier["ratio"], frontier["graph6"]) != (ratios[-1], history[-1]["graph6"]):
        whole.append("frontier is not the last history entry")
    elif frontier["ratio"] < k67_ratio() - EIG_TOL:
        whole.append(f"final ratio {frontier['ratio']} is below K_6,7's")
    for h in history:
        try:
            g = decode(h["graph6"])
            w = laplacian_eigenvalues(g)
            if h["n"] != g.number_of_nodes() or abs(h["ratio"] - w[1] / w[-1]) > EIG_TOL:
                each.append(f"frontier entry {h['graph6']} has a wrong n or ratio")
            elif not non_hamiltonian(g):
                each.append(f"frontier graph {h['graph6']} is Hamiltonian")
        except MALFORMED as exc:
            each.append(f"frontier entry is malformed: {exc}")
    for rec in doc["bd0_counterexamples"]:
        try:
            g = decode(rec["graph6"])
            w = laplacian_eigenvalues(g)
            delta = min(d for _, d in g.degree())
            if brute_toughness(adjacency_masks(g)) + THEOREM_SLACK >= w[1] / (w[-1] - delta):
                each.append(f"counterexample {rec['graph6']} does not violate bd0")
        except MALFORMED as exc:
            each.append(f"counterexample is malformed: {exc}")
    return whole, each
