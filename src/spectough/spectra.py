"""Laplacian matrices and their full spectra via cyclic Jacobi sweeps.

The eigensolver is a plain dense cyclic Jacobi iteration on rows of
Python floats: at these orders (n <= 62) it is fast enough, bit-for-bit
portable, and easy to audit.  Sweeps stop when the off-diagonal
Frobenius norm drops below 1e-12 times the Frobenius norm of the input
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EigenConvergenceError
from .graphs import Graph, iter_bits

MAX_SWEEPS = 100
OFFDIAG_REL_TOL = 1e-12


def laplacian_matrix(g: Graph) -> list[list[float]]:
    """Degree matrix minus adjacency matrix, as rows; every row sums to zero."""
    m = [[0.0] * g.n for _ in range(g.n)]
    for v, row in enumerate(g.adj):
        m[v][v] = float(row.bit_count())
        for u in iter_bits(row):
            m[v][u] = -1.0
    return m


def jacobi_eigenvalues(matrix: Sequence[Sequence[float]]) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi rotations.

    Raises ValueError unless ``matrix`` is a square, symmetric sequence of
    rows, and EigenConvergenceError if MAX_SWEEPS sweeps do not reach the
    off-diagonal threshold (never silently returns a bad spectrum).
    """
    try:
        a = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError("matrix must be square and symmetric") from None
    n = len(a)
    if not a or any(len(row) != n for row in a) or not _symmetric(a):
        raise ValueError("matrix must be square and symmetric")
    if n == 1:
        return [a[0][0]]
    fro = math.sqrt(sum(x * x for row in a for x in row))
    if fro == 0.0:
        return [0.0] * n
    thresh = OFFDIAG_REL_TOL * fro
    skip = 1e-300  # rotations on exact zeros are pointless
    for _ in range(MAX_SWEEPS):
        # the diagonal enters as (x - x)**2: 0.0, or NaN if x is not
        # finite, and then the sweeps never converge
        off = math.sqrt(sum(x * x if p != q else (x - x) * (x - x)
                            for p, row in enumerate(a)
                            for q, x in enumerate(row)))
        if off <= thresh:
            return sorted(a[p][p] for p in range(n))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # rows p and q first, then columns p and q of the new rows
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
        f"Jacobi did not converge within {MAX_SWEEPS} sweeps (n={n})")


def _symmetric(a: list[list[float]]) -> bool:
    """numpy.allclose(a, a.T) with its default rtol=1e-5, atol=1e-8."""
    return all(x == y
               or (math.isfinite(y) and abs(x - y) <= 1e-8 + 1e-5 * abs(y))
               for i, row in enumerate(a)
               for x, y in zip(row, (other[i] for other in a)))


@dataclass(frozen=True)
class Spectrum:
    """Ascending Laplacian eigenvalues plus the tolerance for comparing them."""

    values: tuple[float, ...]
    tol: float

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mu2(self) -> float:
        return self.values[1]

    @property
    def mun(self) -> float:
        return self.values[-1]

    @property
    def ratio(self) -> float:
        return self.mu2 / self.mun


def spectrum(g: Graph) -> Spectrum:
    values = jacobi_eigenvalues(laplacian_matrix(g))
    return Spectrum(values=tuple(values), tol=1e-9 * g.n)
