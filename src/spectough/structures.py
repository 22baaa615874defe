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

The oracles are deterministic backtrackers, exact within their caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from . import _kernels
from .errors import CapacityError
from .graphs import Graph, iter_bits, mask_of
from .spectra import Spectrum

DEFAULT_ORACLE_CAP = 16
EXTENDABLE_CAP = 12
FACTOR_CAP = 10
CRITICAL_CAP = 12
# The [a,b]-factor hypotheses every guarantee list evaluates.
AB_PAIRS = ((1, 2), (2, 3))


# ---------------------------------------------------------------------------
# oracles


def has_perfect_matching(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Backtracking on the lowest-indexed unmatched vertex."""
    if g.n % 2 != 0:
        raise ValueError("perfect matching needs an even number of vertices")
    if g.n > cap:
        raise CapacityError(f"matching oracle capped at n={cap}")
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


def has_spanning_tree_max_degree(g: Graph, k: int,
                                 cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Backtracking over edge inclusions with degree pruning; k=2 is a
    Hamilton path test."""
    if k < 2:
        raise ValueError("degree bound must be at least 2")
    if g.n > cap:
        raise CapacityError(f"spanning-tree oracle capped at n={cap}")
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


def has_hamilton_cycle(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Deterministic backtracking with degree-2 and connectivity pruning.

    A connected bipartite graph with sides of different size is rejected
    without a search: removing the smaller side leaves more components
    than it has vertices, so the graph is not 1-tough, and a Hamiltonian
    graph is (Chvatal, 1973).
    """
    if g.n < 3:
        raise ValueError("Hamilton cycle needs n >= 3")
    if g.n > cap:
        raise CapacityError(f"Hamilton oracle capped at n={cap}")
    if _unbalanced_bipartite(g):
        return False
    return _kernels.hamilton_cycle(g.n, g.adj)


def _unbalanced_bipartite(g: Graph) -> bool:
    """Is g connected and bipartite with sides of different size?  The
    sides are the even and the odd BFS layers from vertex 0."""
    sides = [0, 0]
    seen = frontier = 1
    depth = 0
    while frontier:
        sides[depth % 2] |= frontier
        reach = 0
        for v in iter_bits(frontier):
            reach |= g.adj[v]
        frontier = reach & ~seen
        seen |= frontier
        depth += 1
    return (seen == g.full_mask
            and sides[0].bit_count() != sides[1].bit_count()
            and not any(g.adj[v] & side for side in sides
                        for v in iter_bits(side)))


def is_m_extendable(g: Graph, m: int, cap: int = EXTENDABLE_CAP) -> bool:
    """Every matching of size exactly m extends to a perfect matching."""
    if g.n % 2 != 0:
        raise ValueError("extendability is defined for even orders")
    if not 1 <= m < g.n // 2 - 1:
        raise ValueError(f"need 1 <= m < n/2 - 1 = {g.n // 2 - 1}")
    if g.n > cap:
        raise CapacityError(f"extendability oracle capped at n={cap}")
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


def has_factor(g: Graph, a: int, b: int, cap: int = FACTOR_CAP) -> bool:
    """Spanning subgraph with every degree in [a, b], by edge backtracking.

    Prunes on degree-interval feasibility: a vertex is dead once its
    chosen degree exceeds b or cannot reach a with the edges left.
    """
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    if g.n > cap:
        raise CapacityError(f"factor oracle capped at n={cap}")
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


def is_1s_factor_critical(g: Graph, s: int, cap: int = CRITICAL_CAP) -> bool:
    """G minus every s-subset of vertices has a perfect matching."""
    if not 1 <= s < g.n:
        raise ValueError("need 1 <= s < n")
    if (g.n + s) % 2 != 0:
        raise ValueError("n + s must be even")
    if g.n > cap:
        raise CapacityError(f"factor-critical oracle capped at n={cap}")
    return all(_pm(g.adj, g.full_mask & ~mask_of(combo))
               for combo in combinations(range(g.n), s))


# ---------------------------------------------------------------------------
# guarantee derivation


@dataclass(frozen=True)
class Guarantee:
    """One structural property promised by the eigenratio."""

    name: str
    params: dict = field(default_factory=dict)
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
        out.append(Guarantee("2-walk"))

    return out


def verify_guarantee(g: Graph, item: Guarantee,
                     oracle_cap: int = DEFAULT_ORACLE_CAP) -> Optional[bool]:
    """Run the matching combinatorial oracle for an emitted guarantee.

    Returns True/False, or None when the guarantee has no oracle or the
    graph exceeds the oracle's cap.
    """
    try:
        if item.oracle == "perfect-matching":
            return has_perfect_matching(g, cap=oracle_cap)
        if item.oracle == "(1,1)-critical":
            return is_1s_factor_critical(g, 1, cap=min(oracle_cap, CRITICAL_CAP))
        if item.oracle == "m-extendable":
            return is_m_extendable(g, item.params["m"],
                                   cap=min(oracle_cap, EXTENDABLE_CAP))
        if item.oracle == "k-factor":
            k = item.params["k"]
            return has_factor(g, k, k, cap=min(oracle_cap, FACTOR_CAP))
        if item.oracle == "ab-factor":
            return has_factor(g, item.params["a"], item.params["b"],
                              cap=min(oracle_cap, FACTOR_CAP))
        if item.oracle == "(1,s)-critical":
            return is_1s_factor_critical(g, item.params["s"],
                                         cap=min(oracle_cap, CRITICAL_CAP))
        if item.oracle == "spanning-tree":
            return has_spanning_tree_max_degree(g, item.params["k"],
                                                cap=oracle_cap)
    except CapacityError:
        return None
    return None
