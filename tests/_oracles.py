"""Independent brute-force oracles that only the tests use.

Each is deliberately simpler than the library code it cross-checks and
shares no kernel with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from spectough.errors import EigenConvergenceError
from spectough.graphs import Graph, iter_bits, mask_of
from spectough.structures import has_factor
from spectough.toughness import ToughnessCertificate


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


def components(g: Graph, removed: int) -> list[int]:
    """Components of G minus the ``removed`` bitset, by union-find over the
    edges of G - S (no bitset frontier walk, unlike the kernels), as
    bitsets by ascending size, ties by smallest member."""
    parent = {v: v for v in range(g.n) if not removed >> v & 1}

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges():
        if u in parent and v in parent:
            parent[find(u)] = find(v)
    comps: dict[int, int] = {}
    for v in parent:
        root = find(v)
        comps[root] = comps.get(root, 0) | 1 << v
    return sorted(comps.values(), key=lambda m: (m.bit_count(), m & -m))


def component_count(g: Graph, removed: int) -> int:
    """How many components G minus the ``removed`` bitset has."""
    return len(components(g, removed))


def complement(g: Graph) -> Graph:
    """G's complement, from every vertex pair that is not an edge."""
    return Graph.from_edges(g.n, [pair for pair in combinations(range(g.n), 2)
                                  if not g.has_edge(*pair)])


def prop2_cases(g: Graph, cert: ToughnessCertificate) -> dict[str, bool]:
    """Cases (i)-(iv) at the cut S: (i) the complement is disconnected,
    (ii) every component of G - S is one vertex, (iii) some components
    hold exactly half of V - S (every subset of them is tried), (iv) G - S
    has two components."""
    sizes = [m.bit_count() for m in components(g, cert.s_mask)]
    return {"i": component_count(complement(g), 0) > 1,
            "ii": all(size == 1 for size in sizes),
            "iii": any(2 * sum(part) == sum(sizes)
                       for r in range(1, len(sizes) + 1)
                       for part in combinations(sizes, r)),
            "iv": len(sizes) == 2}


def unbalanced_bipartite(g: Graph) -> bool:
    """Connected, with a proper 2-colouring whose two sides differ in size:
    every vertex subset is tried as one side (no walk)."""
    return component_count(g, 0) == 1 and any(
        2 * side.bit_count() != g.n
        and not any(g.adj[v] & (side if side >> v & 1 else ~side)
                    for v in range(g.n))
        for side in range(1 << g.n))


def exhaustive_toughness(g: Graph, cap: int = 9) -> ToughnessCertificate:
    """No-pruning reference search; kept independent of the kernels on purpose."""
    if g.n > cap:
        raise ValueError(f"exhaustive search capped at n={cap}")
    if g.is_complete() or not g.is_connected():
        raise ValueError("a toughness certificate needs a connected, "
                         "non-complete graph")
    best = None
    best_mask = 0
    best_c = 0
    for k in range(1, g.n - 1):
        for combo in combinations(range(g.n), k):
            mask = mask_of(combo)
            c = component_count(g, mask)
            if c < 2:
                continue
            val = Fraction(k, c)
            if best is None or val < best:
                best, best_mask, best_c = val, mask, c
    return ToughnessCertificate(s_mask=best_mask, c=best_c)


def is_r_tough(g: Graph, r: Fraction | int) -> bool:
    """Exact rational comparison t(G) >= r, by the exhaustive search
    (n <= 10, so Petersen is in reach)."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if g.is_complete():
        return True
    if not g.is_connected():
        return r == 0
    return exhaustive_toughness(g, cap=10).value >= r


def has_hamilton_path(g: Graph) -> bool:
    """Direct Hamilton-path backtracker (cross-check for the k=2 tree case)."""
    if g.n == 1:
        return True
    full = g.full_mask

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return True
        return any(extend(u, visited | (1 << u))
                   for u in iter_bits(g.adj[v] & ~visited))

    return any(extend(s, 1 << s) for s in range(g.n))


def _perfect_matching_without(g: Graph, removed: int) -> bool:
    """Relabel G minus ``removed`` as a new graph and ask the edge
    backtracker for a 1-factor (no bitset matching search involved)."""
    kept = [v for v in range(g.n) if not removed >> v & 1]
    index = {v: i for i, v in enumerate(kept)}
    sub = Graph.from_edges(len(index), [(index[u], index[v])
                                        for u, v in g.edges()
                                        if u in index and v in index])
    return has_factor(sub, 1, 1)


def is_1_extendable(g: Graph) -> bool:
    """Every edge uv lies in a perfect matching: G - u - v has one."""
    return all(_perfect_matching_without(g, (1 << u) | (1 << v))
               for u, v in g.edges())


def is_1s_factor_critical(g: Graph, s: int) -> bool:
    """G minus every s-subset of vertices has a perfect matching."""
    return all(_perfect_matching_without(g, mask_of(combo))
               for combo in combinations(range(g.n), s))


def jacobi_eigenvalues(matrix) -> list[float]:
    """Reference cyclic Jacobi sweep: each rotation builds new rows p and
    q, then rotates columns p and q.  Both norms are explicit left-to-right
    loops, which is what ``sum()`` does on Python 3.11, so this defines the
    bits that ``spectra.jacobi_eigenvalues`` must return on every Python;
    its input checks raise the same messages."""
    try:
        a = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError("matrix must be square and symmetric") from None
    n = len(a)
    if not a or any(len(row) != n for row in a) or not all(
            x == y or (math.isfinite(y) and abs(x - y) <= 1e-8 + 1e-5 * abs(y))
            for i, row in enumerate(a)
            for x, y in zip(row, (other[i] for other in a))):
        raise ValueError("matrix must be square and symmetric")
    total = 0.0
    for row in a:
        for x in row:
            total += x * x
    fro = math.sqrt(total)
    if not math.isfinite(fro):
        raise ValueError("matrix must have a finite Frobenius norm")
    if n == 1:
        return [a[0][0]]
    if fro == 0.0:
        return [0.0] * n
    thresh = 1e-12 * fro
    for _ in range(100):
        total = 0.0
        for p, row in enumerate(a):
            for q, x in enumerate(row):
                total += x * x if p != q else (x - x) * (x - x)
        if math.sqrt(total) <= thresh:
            return sorted(a[p][p] for p in range(n))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(rp, rq)]
                a[q] = [s * x + c * y for x, y in zip(rp, rq)]
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                a[p][q] = 0.0
                a[q][p] = 0.0
    raise EigenConvergenceError(
        f"Jacobi did not converge within 100 sweeps (n={n})")
