"""Lemmas of the paper's proofs, as functions that only the tests use.

The independence and separation inequalities, the Proposition 3.2
bounds, the eigenratio-to-toughness threshold and the balanced split of
an extremal cut's components are checked over the corpus by the
acceptance suite; the scan itself never calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from spectough.graphs import Graph, iter_bits
from spectough.spectra import Spectrum


class NotApplicableError(ValueError):
    """Requested construction does not apply to this input shape."""


def independence_upper_bound(s: Spectrum, delta: int, n: int) -> float:
    """Upper bound n * (mun - delta) / mun on the size of any independent set."""
    if s.mun <= s.tol:
        raise ValueError("independence bound needs at least one edge")
    return n * (s.mun - delta) / s.mun


@dataclass(frozen=True)
class SeparationCheck:
    lhs: float
    rhs: float
    passed: bool


def separation_verify(g: Graph, x: int, y: int, s: Spectrum) -> SeparationCheck:
    """Check |X||Y| / ((n-|X|)(n-|Y|)) <= ((mun-mu2)/(mun+mu2))^2.

    X and Y are vertex bitsets: disjoint, nonempty, with no edge between
    them.  A violated precondition raises; a failed inequality (which a
    correct eigensolver can never produce) is reported with passed=False.
    """
    if not x or not y:
        raise ValueError("X and Y must be nonempty")
    if x & y:
        raise ValueError("X and Y must be disjoint")
    for u in iter_bits(x):
        if g.adj[u] & y:
            raise ValueError(f"edge between X and Y at vertex {u}")
    nx, ny = x.bit_count(), y.bit_count()
    lhs = (nx * ny) / ((g.n - nx) * (g.n - ny))
    beta = (s.mun - s.mu2) / (s.mun + s.mu2)
    rhs = beta * beta
    return SeparationCheck(lhs=lhs, rhs=rhs, passed=lhs <= rhs + s.tol)


def prop32_bounds(s: Spectrum, n: int) -> tuple[float, float]:
    """For a cut S splitting the rest into X, Y (|X| <= |Y|): returns
    (x_upper, s_coeff) with |X| <= x_upper and |S| >= s_coeff * |X|."""
    spread = s.mun - s.mu2
    if spread <= s.tol:
        raise ValueError("degenerate spectrum (complete graph): no finite bounds")
    x_upper = n * spread / (2.0 * s.mun)
    s_coeff = 2.0 * s.mu2 / spread
    return x_upper, s_coeff


def toughness_from_ratio(ratio: float) -> float:
    """Largest r such that the eigenratio threshold r/(r+1) is met."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("eigenratio must be in [0, 1) for non-complete graphs")
    return ratio / (1.0 - ratio)


def proof_partition(component_sizes: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split components H_1 <= ... <= H_c into X, Y with |Y| >= |X| >= c/2.

    ``component_sizes`` must be ascending with c >= 2.  Returns 1-based
    component indices.  The all-singleton odd-c case has no such split
    and is signalled as not applicable (that case is covered by the
    independent-set route instead).
    """
    sizes = list(component_sizes)
    c = len(sizes)
    if c < 2:
        raise ValueError("need at least two components")
    if any(s < 1 for s in sizes):
        raise ValueError("component sizes must be positive")
    if sizes != sorted(sizes):
        raise ValueError("component sizes must be ascending")
    if c % 2 == 1 and all(s == 1 for s in sizes):
        raise NotApplicableError(
            "odd number of singleton components: no balanced split exists")
    if c % 2 == 0:
        split = c // 2
    elif sizes[(c - 1) // 2 - 1] >= 2:
        split = (c - 1) // 2
    else:
        split = (c + 1) // 2
    x = tuple(range(1, split + 1))
    y = tuple(range(split + 1, c + 1))
    if sum(sizes[i - 1] for i in x) > sum(sizes[i - 1] for i in y):
        x, y = y, x
    return x, y
