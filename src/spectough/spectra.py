"""Laplacian matrices and their full spectra via cyclic Jacobi sweeps.

The eigensolver is a plain dense cyclic Jacobi iteration on rows of
Python floats: at these orders (n <= 62) it is fast enough, bit-for-bit
portable, and easy to audit.  Each rotation updates rows p and q in
place, then columns p and q.  Sweeps stop when the off-diagonal
Frobenius norm drops below 1e-12 times the Frobenius norm of the input
matrix; both norms are plain left-to-right sums (not the compensated
``sum()`` of Python 3.12+), so every Python returns the same bits.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul
from typing import NamedTuple, Sequence

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
    rows with a finite Frobenius norm, so finite entries, and
    EigenConvergenceError if MAX_SWEEPS sweeps do not reach the
    off-diagonal threshold (never silently returns a bad spectrum).
    The caller's matrix is never modified.
    """
    try:
        a = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError("matrix must be square and symmetric") from None
    n = len(a)
    if not a or any(len(row) != n for row in a) or not _symmetric(a):
        raise ValueError("matrix must be square and symmetric")
    fro = math.sqrt(_sum_squares(a))
    if not math.isfinite(fro):
        # an infinite entry, or entries so large that the norm overflows
        # and the convergence threshold would pass at once
        raise ValueError("matrix must have a finite Frobenius norm")
    if n == 1:
        return [a[0][0]]
    if fro == 0.0:
        return [0.0] * n
    thresh = OFFDIAG_REL_TOL * fro
    skip = 1e-300  # rotations on exact zeros are pointless
    idx = range(n)
    for _ in range(MAX_SWEEPS):
        # entries stay finite (rotations keep the Frobenius norm), so
        # zeroing the diagonal leaves exactly the off-diagonal sum
        diag = [a[p][p] for p in idx]
        for p in idx:
            a[p][p] = 0.0
        off = math.sqrt(_sum_squares(a))
        for p in idx:
            a[p][p] = diag[p]
        if off <= thresh:
            return sorted(diag)
        for p in range(n - 1):
            rp = a[p]
            for q in range(p + 1, n):
                apq = rp[q]
                if abs(apq) <= skip:
                    continue
                rq = a[q]
                theta = (rq[q] - rp[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # rows p and q in place first, then columns p and q
                for k in idx:
                    x = rp[k]
                    y = rq[k]
                    rp[k] = c * x - s * y
                    rq[k] = s * x + c * y
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                rp[q] = 0.0
                rq[p] = 0.0
    raise EigenConvergenceError(
        f"Jacobi did not converge within {MAX_SWEEPS} sweeps (n={n})")


def _sum_squares(rows: list[list[float]]) -> float:
    """Sum of x*x over the rows, row-major, as plain left-to-right float
    additions: the compensated ``sum()`` of Python 3.12+ would round
    differently, so every Python gets the same bits."""
    total = 0.0
    for row in rows:
        total = reduce(add, map(mul, row, row), total)
    return total


def _symmetric(a: list[list[float]]) -> bool:
    """numpy.allclose(a, a.T) with its default rtol=1e-5, atol=1e-8."""
    return all(x == y
               or (math.isfinite(y) and abs(x - y) <= 1e-8 + 1e-5 * abs(y))
               for i, row in enumerate(a)
               for x, y in zip(row, (other[i] for other in a)))


class Spectrum(NamedTuple):
    """Ascending Laplacian eigenvalues plus the tolerance for comparing them."""

    values: tuple[float, ...]
    tol: float

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
