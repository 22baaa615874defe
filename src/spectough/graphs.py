"""Immutable bitset graphs, the graph6 codec, and family generators.

Vertices are 0-indexed integers.  Every vertex set in this package is a
Python int used as a bitset (bit v set <=> vertex v in the set), which
keeps the exponential cut searches allocation-free.

graph6 (short form only, n <= 62): first byte is n+63, followed by the
upper-triangle adjacency bits in column order x(0,1), x(0,2), x(1,2),
x(0,3), ..., packed 6 bits per byte (most significant first), each byte
offset by 63, zero-padded at the end.  Corpus files hold one graph6
string per line; lines starting with '#' are comments.

G(n, p) draws its rows in the kernel library when it is built, and in
the pure-Python reference otherwise, with identical results; gnp takes
n <= 62, the graph6 limit that every consumer needs anyway.

The package's records (Graph here, Spectrum, ToughnessCertificate,
Guarantee and ScanConfig) are typing.NamedTuples: immutable, picklable by
name, and cheap to import.  Being tuples, they also unpack into their
fields, have a len, and compare equal to a plain tuple of the same fields.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _kernels
# SplitMix64 is the seeders' PRNG; reach is also structures' and bounds' walk.
from ._kernels._ref import SplitMix64, reach  # noqa: F401
from .errors import Graph6Error

GRAPH6_MAX_N = _kernels.MAX_N


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitset."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(NamedTuple):
    """Simple undirected graph: vertex count plus one adjacency bitset per vertex.

    Immutable after construction; safe to share across worker processes.
    """

    n: int
    adj: tuple[int, ...]
    edge_count: int

    @classmethod
    def from_adj_masks(cls, masks: Sequence[int]) -> "Graph":
        n = len(masks)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        total = 0
        for v, row in enumerate(masks):
            if row >> n:
                raise ValueError(f"adjacency row {v} references vertex >= {n}")
            bit = 1 << v
            if row & bit:
                raise ValueError(f"loop at vertex {v}")
            rest = row
            while rest:  # each neighbour u, ascending
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if not masks[u] & bit:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
            total += row.bit_count()
        return cls(n=n, adj=tuple(masks), edge_count=total // 2)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls.from_adj_masks(masks)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def min_degree(self) -> int:
        return min(self.degrees())

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in iter_bits(self.adj[u]) if u < v]

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def is_connected(self) -> bool:
        """Whether the kernels' walk (``_ref.reach``) from vertex 0 reaches
        every vertex."""
        return reach(self.adj, 1, self.full_mask) == self.full_mask


# ---------------------------------------------------------------------------
# graph6 codec


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line into a Graph."""
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {s[exc.start]!r} outside "
                          "graph6 range 63..126") from None
    for b in data:
        if b < 63 or b > 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126")
    if data[0] == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    n = data[0] - 63
    if n < 1:
        raise Graph6Error("graph6 order must be at least 1")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise Graph6Error(
            f"graph6 body has {len(data) - 1} bytes, expected {need} for n={n}")
    bits = 0
    for b in data[1:]:
        bits = (bits << 6) | (b - 63)
    pad = need * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bits >>= pad
    masks = [0] * n
    # column-major upper triangle: the first emitted bit is the highest here
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> pos & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            pos -= 1
    return Graph.from_adj_masks(masks)


def write_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 string (round-trips parse_graph6)."""
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"order {g.n} exceeds the short-form limit {GRAPH6_MAX_N}")
    # column j holds x(0,j) .. x(j-1,j): the low j bits of row j, lowest first
    column_bits = "".join([format(row & ((1 << j) - 1), f"0{j}b")[::-1]
                           for j, row in enumerate(g.adj) if j])
    nbits = len(column_bits)
    pad = (6 - nbits % 6) % 6
    bits = int(column_bits or "0", 2) << pad
    out = [g.n + 63]
    for k in range((nbits + 5) // 6 - 1, -1, -1):
        out.append(((bits >> (6 * k)) & 63) + 63)
    return bytes(out).decode("ascii")


def read_graph6_lines(lines: Iterable[str]) -> Iterator[str]:
    """Yield graph6 payload lines, skipping blanks and '#' comments."""
    for line in lines:
        s = line.strip()
        if s and not s.startswith("#"):
            yield s


# ---------------------------------------------------------------------------
# generators


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    full = (1 << n) - 1
    return Graph.from_adj_masks([full & ~(1 << v) for v in range(n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """K_{n1,...,nm}; parts are consecutive label blocks in the given order."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    part = []
    for idx, s in enumerate(sizes):
        part.extend([idx] * s)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if part[u] != part[v]]
    return Graph.from_edges(n, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), reproducible across implementations.

    Draws one SplitMix64 word per pair (i, j), i < j, in row-major order;
    the edge is present iff the word is below floor(p * 2^64).  The seed
    is taken modulo 2^64.
    """
    if not 1 <= n <= GRAPH6_MAX_N:
        raise ValueError(f"gnp(n) needs 1 <= n <= {GRAPH6_MAX_N}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("gnp probability must be in [0, 1]")
    return Graph.from_adj_masks(_kernels.gnp_rows(n, p, seed))
