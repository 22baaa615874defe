"""Structural guarantees driven by the eigenratio mu2/mun, and the small
brute-force oracles that cross-check them.

Guarantee thresholds (ratio = mu2/mun, n = order, non-strict unless noted):

    elementary             n even, 2*mu2 >= mun
    factor-critical        n odd,  2*mu2 >= mun
    m-extendable           n even, ratio > m/(m+1), m < n/2 - 1   (strict)
    k-factor               n >= k+1, kn even, ratio >= k/(k+1)
    [a,b]-factor           a < b or bn even, ratio >= 1 - b/(a(b+1)),
                           for each (a, b) in AB_PAIRS
    (1,s)-factor-critical  2 <= s < n, n+s even, ratio > s/(s+2)  (strict)
    spanning tree deg <= k k >= 3, ratio >= 1/(k-1)  (smallest such k emitted)
    k-walk                 implied by the spanning-tree entry
    2-walk                 ratio >= 4/5  (emitted but never oracle-verified)

The oracles are exact deterministic backtrackers; ORACLES holds each
one's own order limit, the only size policy in this module.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple, Optional

from . import _kernels
from .graphs import Graph, iter_bits, mask_of, reach
from .spectra import Spectrum

# The [a,b]-factor hypotheses every guarantee list evaluates.
AB_PAIRS = ((1, 2), (2, 3))


# ---------------------------------------------------------------------------
# oracles


def has_perfect_matching(g: Graph) -> bool:
    """Backtracking on the lowest-indexed unmatched vertex."""
    if g.n % 2 != 0:
        raise ValueError("perfect matching needs an even number of vertices")
    return _pm(g.adj, g.full_mask)


def _pm(adj: tuple[int, ...], unmatched: int) -> bool:
    """Perfect matching of the subgraph induced by the ``unmatched`` mask."""
    if not unmatched:
        return True
    low = unmatched & -unmatched
    v = low.bit_length() - 1
    rest = unmatched ^ low
    for u in iter_bits(adj[v] & rest):
        if _pm(adj, rest ^ (1 << u)):
            return True
    return False


def has_spanning_tree_max_degree(g: Graph, k: int) -> bool:
    """Backtracking over edge inclusions with degree pruning; k=2 is a
    Hamilton path test."""
    if k < 2:
        raise ValueError("degree bound must be at least 2")
    if not g.is_connected():
        raise ValueError("spanning tree needs a connected graph")
    if g.n == 1:
        return True
    edges = g.edges()
    parent = list(range(g.n))

    # no path compression: backtracking undoes a union by resetting one
    # root, which is only sound if find never rewrites other links
    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    deg = [0] * g.n

    def rec(i: int, chosen: int) -> bool:
        if chosen == g.n - 1:
            return True
        if len(edges) - i < g.n - 1 - chosen:
            return False
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv and deg[u] < k and deg[v] < k:
            saved = parent[ru]
            parent[ru] = rv
            deg[u] += 1
            deg[v] += 1
            if rec(i + 1, chosen + 1):
                return True
            deg[u] -= 1
            deg[v] -= 1
            parent[ru] = saved
        return rec(i + 1, chosen)

    return rec(0, 0)


def has_hamilton_cycle(g: Graph) -> bool:
    """Deterministic backtracking with degree-2 and connectivity pruning.

    A connected bipartite graph with sides of different size is rejected
    without a search: removing the smaller side leaves more components
    than it has vertices, so the graph is not 1-tough, and a Hamiltonian
    graph is (Chvatal, 1973).
    """
    if g.n < 3:
        raise ValueError("Hamilton cycle needs n >= 3")
    if _unbalanced_bipartite(g):
        return False
    return _kernels.hamilton_cycle(g.n, g.adj)


def _unbalanced_bipartite(g: Graph) -> bool:
    """Is g, of order at least 2, connected and bipartite with sides of
    different size?  ``two_step[v]`` is the union of the rows of v's
    neighbours, so ``reach`` over it finds what walks of even length reach
    from vertex 0: in a connected graph, exactly vertex 0's side if g is
    bipartite and every vertex if it is not.

    ``scan.hunt`` already skips the search when the toughness cut has
    |S| < c, so the prune only matters above ``cap_toughness``, where no
    cut is known; no benchmark workload gets there.  It stays because
    the backtracker alone is slow on these graphs: the compiled kernel
    took 0.16 s on K_{6,9}, 0.89 s on K_{7,8} and 3.5 s on K_{7,9} (one
    core of an Intel Xeon)."""
    two_step = [0] * g.n
    for v, row in enumerate(g.adj):
        for u in iter_bits(row):
            two_step[v] |= g.adj[u]
    side = reach(two_step, 1, g.full_mask)
    return (g.is_connected() and side != g.full_mask
            and 2 * side.bit_count() != g.n)


def is_m_extendable(g: Graph, m: int) -> bool:
    """Every matching of size exactly m extends to a perfect matching."""
    if g.n % 2 != 0:
        raise ValueError("extendability is defined for even orders")
    if not 1 <= m < g.n // 2 - 1:
        raise ValueError(f"need 1 <= m < n/2 - 1 = {g.n // 2 - 1}")
    edges = g.edges()

    def matchings(start: int, used: int, size: int):
        if size == m:
            yield used
            return
        for i in range(start, len(edges)):
            u, v = edges[i]
            muv = (1 << u) | (1 << v)
            if not used & muv:
                yield from matchings(i + 1, used | muv, size + 1)

    return all(_pm(g.adj, g.full_mask & ~used)
               for used in matchings(0, 0, 0))


def has_factor(g: Graph, a: int, b: int) -> bool:
    """Spanning subgraph with every degree in [a, b], by edge backtracking.

    Prunes on degree-interval feasibility: a vertex is dead once its
    chosen degree exceeds b or cannot reach a with the edges left.
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    edges = g.edges()
    deg = [0] * g.n
    remaining = g.degrees()

    def rec(i: int) -> bool:
        if i == len(edges):
            return all(d >= a for d in deg)
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        # take the edge
        if deg[u] < b and deg[v] < b:
            deg[u] += 1
            deg[v] += 1
            if (deg[u] + remaining[u] >= a and deg[v] + remaining[v] >= a
                    and rec(i + 1)):
                return True
            deg[u] -= 1
            deg[v] -= 1
        # leave the edge
        if deg[u] + remaining[u] >= a and deg[v] + remaining[v] >= a:
            if rec(i + 1):
                return True
        remaining[u] += 1
        remaining[v] += 1
        return False

    if any(d < a for d in g.degrees()):
        return False
    return rec(0)


def is_1s_factor_critical(g: Graph, s: int) -> bool:
    """G minus every s-subset of vertices has a perfect matching."""
    if not 1 <= s < g.n:
        raise ValueError("need 1 <= s < n")
    if (g.n + s) % 2 != 0:
        raise ValueError("n + s must be even")
    return all(_pm(g.adj, g.full_mask & ~mask_of(combo))
               for combo in combinations(range(g.n), s))


# ---------------------------------------------------------------------------
# guarantee derivation


class Guarantee(NamedTuple):
    """One structural property promised by the eigenratio."""

    name: str
    params: dict  # every caller passes its own dict: no shared default
    oracle: Optional[str] = None  # None = emitted but not desk-verifiable

    @property
    def tag(self) -> str:
        """Name plus sorted params, e.g. ``k-factor[k=2]``."""
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.name}[{inner}]"
        return self.name


def guarantees(g: Graph, s: Spectrum) -> list[Guarantee]:
    """Every structural guarantee whose eigenratio hypothesis holds.

    Disconnected input is rejected: the guarantees would be vacuous.
    """
    if g.edge_count == 0 or not g.is_connected():
        raise ValueError("guarantees need a connected graph with an edge")
    n = g.n
    tol = s.tol
    ratio = s.ratio
    out: list[Guarantee] = []

    half = 2.0 * s.mu2 >= s.mun - tol
    if n % 2 == 0 and half:
        out.append(Guarantee("elementary", {}, "perfect-matching"))
    if n % 2 == 1 and half:
        out.append(Guarantee("factor-critical", {}, "(1,1)-critical"))

    if n % 2 == 0:
        m = 1
        while m < n // 2 - 1 and ratio > m / (m + 1) + tol:
            out.append(Guarantee("m-extendable", {"m": m}, "m-extendable"))
            m += 1

    k = 1
    while k <= n - 1 and ratio >= k / (k + 1) - tol:
        if (k * n) % 2 == 0:
            out.append(Guarantee("k-factor", {"k": k}, "k-factor"))
        k += 1

    for a, b in AB_PAIRS:
        if (a < b or (b * n) % 2 == 0) and ratio >= 1.0 - b / (a * (b + 1)) - tol:
            out.append(Guarantee("ab-factor", {"a": a, "b": b}, "ab-factor"))

    for step in range(2, n):
        if (n + step) % 2 == 0 and ratio > step / (step + 2) + tol:
            out.append(Guarantee("(1,s)-factor-critical", {"s": step},
                                 "(1,s)-critical"))

    if ratio > tol:
        k_tree = max(3, math.ceil(1.0 + 1.0 / ratio - tol))
        if ratio >= 1.0 / (k_tree - 1) - tol:
            out.append(Guarantee("spanning-tree-max-degree", {"k": k_tree},
                                 "spanning-tree"))
            out.append(Guarantee("k-walk", {"k": k_tree}))

    if ratio >= 0.8 - tol:
        out.append(Guarantee("2-walk", {}))

    return out


# oracle -> (its own order limit, or None when only the scan's oracle cap
# bounds it, and its check on a graph and the guarantee's params).
ORACLES = {
    "perfect-matching": (None, lambda g, p: has_perfect_matching(g)),
    "(1,1)-critical": (12, lambda g, p: is_1s_factor_critical(g, 1)),
    "m-extendable": (12, lambda g, p: is_m_extendable(g, p["m"])),
    "k-factor": (10, lambda g, p: has_factor(g, p["k"], p["k"])),
    "ab-factor": (10, lambda g, p: has_factor(g, p["a"], p["b"])),
    "(1,s)-critical": (12, lambda g, p: is_1s_factor_critical(g, p["s"])),
    "spanning-tree": (None,
                      lambda g, p: has_spanning_tree_max_degree(g, p["k"])),
}


def verify_guarantee(g: Graph, item: Guarantee,
                     oracle_cap: int) -> Optional[bool]:
    """Run the oracle an emitted guarantee names.

    Returns True/False, or None when the guarantee has no oracle or the
    graph's order exceeds oracle_cap or the oracle's own limit.
    """
    if item.oracle is None:
        return None
    limit, check = ORACLES[item.oracle]
    if g.n > oracle_cap or (limit is not None and g.n > limit):
        return None
    return check(g, item.params)
