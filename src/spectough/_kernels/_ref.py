"""Pure-Python kernels: bit-for-bit reference for the C kernels in bitset.c.

Both backends must return identical results; tests cross-check them.
Subsets are enumerated by increasing size and, within a size, in
lexicographic order of the ascending vertex tuple, so "first strict
improvement wins" yields the documented deterministic tie-break.
``reach`` is the one reachability walk: the cut search's component
count, the Hamilton prune, spectough.graphs, the bipartite prune in
spectough.structures and the case detection in spectough.bounds all
call it.
"""

from __future__ import annotations

BACKEND_NAME = "pure"


def reach(adj: tuple[int, ...], seed: int, allowed: int) -> int:
    """The vertices of ``allowed`` that paths inside ``allowed`` connect to
    ``seed`` (a one-vertex bitset), seed included: a frontier walk that
    adds each frontier vertex's unseen neighbours in ``allowed``."""
    comp = frontier = seed
    while frontier:
        low = frontier & -frontier
        new = adj[low.bit_length() - 1] & allowed & ~comp
        comp |= new
        frontier = (frontier ^ low) | new
    return comp


def _component_count(n: int, adj: tuple[int, ...], removed: int) -> int:
    rest = ((1 << n) - 1) & ~removed
    count = 0
    while rest:
        rest &= ~reach(adj, rest & -rest, rest)
        count += 1
    return count


def toughness_search(n: int, adj: tuple[int, ...]):
    """Minimize |S| / c(G-S) over cuts S with c >= 2; exact rational compare.

    Caller guarantees the graph is connected and not complete.  Returns
    (|S|, c, S_mask) for the optimal cut: smallest ratio, ties broken by
    smaller |S| then lexicographically smallest S.  Prunes size class k
    once k/(n-k) >= best, since c <= n-k.
    """
    best_num = 0
    best_den = 0  # den 0 encodes "+infinity, nothing found yet"
    best_mask = 0
    for k in range(1, n - 1):
        if best_den and k * best_den >= best_num * (n - k):
            break
        # iterative lexicographic k-combinations of range(n)
        idx = list(range(k))
        while True:
            mask = 0
            for v in idx:
                mask |= 1 << v
            c = _component_count(n, adj, mask)
            if c >= 2 and (best_den == 0 or k * best_den < best_num * c):
                best_num, best_den, best_mask = k, c, mask
            i = k - 1
            while i >= 0 and idx[i] == n - k + i:
                i -= 1
            if i < 0:
                break
            idx[i] += 1
            for j in range(i + 1, k):
                idx[j] = idx[j - 1] + 1
    return best_num, best_den, best_mask


def hamilton_cycle(n: int, adj: tuple[int, ...]) -> bool:
    """Backtracking Hamilton-cycle search with degree-2 and connectivity pruning."""
    if n < 3:
        return False
    if any(row.bit_count() < 2 for row in adj):
        return False
    full = (1 << n) - 1

    def feasible(current: int, visited: int) -> bool:
        rest = full & ~visited
        # every unvisited vertex still needs two usable incidences
        scan = rest
        while scan:
            low = scan & -scan
            scan ^= low
            avail = adj[low.bit_length() - 1] & (rest | (1 << current) | 1)
            if avail.bit_count() < 2:
                return False
        # unvisited region plus the path head must be connected
        head = 1 << current
        return reach(adj, head, rest | head) & rest == rest

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return bool(adj[v] & 1)
        if not feasible(v, visited):
            return False
        cand = adj[v] & ~visited
        while cand:
            low = cand & -cand
            cand ^= low
            if extend(low.bit_length() - 1, visited | low):
                return True
        return False

    return extend(0, 1)


class SplitMix64:
    """SplitMix64 PRNG: 64-bit state, documented so corpora replay anywhere."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)


def gnp_rows(n: int, p: float, seed: int) -> list[int]:
    """Adjacency rows of G(n, p): one SplitMix64 word per pair (i, j),
    i < j, in row-major order; the edge is present iff the word is below
    floor(p * 2^64).  The seed is taken modulo 2^64."""
    rng = SplitMix64(seed)
    threshold = int(p * (1 << 64))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_u64() < threshold:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows
