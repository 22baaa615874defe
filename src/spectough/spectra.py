"""Laplacian matrices and their full spectra via cyclic Jacobi sweeps.

The eigensolver is a plain dense cyclic Jacobi iteration on rows of
Python floats: at these orders (n <= 62) it is fast enough, bit-for-bit
portable, and easy to audit.  It takes only exactly symmetric matrices,
so each rotation updates rows and columns p and q in one pass.  Sweeps
stop when the off-diagonal Frobenius norm drops below 1e-12 times the
Frobenius norm of the input matrix; both norms are plain left-to-right
sums (not the compensated ``sum()`` of Python 3.12+), so every Python
returns the same bits.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from operator import add, eq, mul
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
    """Ascending eigenvalues by cyclic Jacobi rotations, one pass each.

    Raises ValueError unless ``matrix`` is a square sequence of rows with
    a[i][j] == a[j][i] exactly and a finite Frobenius norm, so finite
    entries, and EigenConvergenceError if MAX_SWEEPS sweeps do not reach the
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
                app, aqq = rp[p], rq[q]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # row[p], row[q] equal rp[k], rq[k]; the pass garbles the
                # 2x2 block, rewritten as a row then a column rotation
                for k, row in enumerate(a):
                    x, y = row[p], row[q]
                    rp[k] = row[p] = c * x - s * y
                    rq[k] = row[q] = s * x + c * y
                rp[p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
                rq[q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
                rp[q] = rq[p] = 0.0
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
    """a == a.T by float ``==``, entry for entry: NaN fails, +0.0 == -0.0."""
    return all(map(eq, chain.from_iterable(a), chain.from_iterable(zip(*a))))


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
