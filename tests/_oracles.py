"""Independent brute-force oracles that only the tests use.

Each is deliberately simpler than the library code it cross-checks and
shares no kernel with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from spectough.errors import CapacityError
from spectough.graphs import Graph, components_after_removal, iter_bits, mask_of
from spectough.structures import DEFAULT_ORACLE_CAP
from spectough.toughness import FINITE, INFINITE, ZERO, ToughnessCertificate


def max_independent_set_size(g: Graph) -> int:
    """Exhaustive branch-and-bound maximum independent set."""
    best = 0

    def rec(avail: int, size: int) -> None:
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best = max(best, size)
            return
        low = avail & -avail
        v = low.bit_length() - 1
        rec(avail & ~low & ~g.adj[v], size + 1)  # take v
        rec(avail ^ low, size)                   # skip v
    rec(g.full_mask, 0)
    return best


def exhaustive_toughness(g: Graph, cap: int = 9) -> ToughnessCertificate:
    """No-pruning reference search; kept independent of the kernels on purpose."""
    if g.n > cap:
        raise CapacityError(f"exhaustive search capped at n={cap}")
    if g.is_complete():
        return ToughnessCertificate(kind=INFINITE)
    if not g.is_connected():
        return ToughnessCertificate(kind=ZERO, value=Fraction(0))
    best = None
    best_mask = 0
    best_c = 0
    for k in range(1, g.n - 1):
        for combo in combinations(range(g.n), k):
            mask = mask_of(combo)
            comps = components_after_removal(g, mask)
            if len(comps) < 2:
                continue
            val = Fraction(k, len(comps))
            if best is None or val < best:
                best, best_mask, best_c = val, mask, len(comps)
    return ToughnessCertificate(kind=FINITE, s_mask=best_mask, c=best_c, value=best)


def has_hamilton_path(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Direct Hamilton-path backtracker (cross-check for the k=2 tree case)."""
    if g.n > cap:
        raise CapacityError(f"path oracle capped at n={cap}")
    if g.n == 1:
        return True
    full = g.full_mask

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return True
        return any(extend(u, visited | (1 << u))
                   for u in iter_bits(g.adj[v] & ~visited))

    return any(extend(s, 1 << s) for s in range(g.n))
