"""Spectral lower bounds on toughness, the separation inequality, and the
case analysis at an extremal cut.

Three bounds are evaluated per graph:

    bd0 = mu2 / (mun - delta)          (conjectured; violations are findings)
    bd1 = mun * mu2 / (n * (mun - delta))
    bd2 = mu2 / (mun - mu2)            (+inf for complete graphs)

bd1 and bd2 are theorems, so a genuine violation means a software bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotApplicableError
from .graphs import Graph, components_after_removal, iter_bits
from .spectra import Spectrum
from .toughness import FINITE, ToughnessCertificate

# A bound "fails" only if the (floor-rounded) exact toughness plus this
# absolute slack is still below the float bound.
VIOLATION_SLACK = 1e-6


@dataclass(frozen=True)
class BoundReport:
    n: int
    delta: int
    mu2: float
    mun: float
    bd0: float
    bd1: float
    bd2: float
    ratio: float
    toughness: ToughnessCertificate | None = None
    slack0: float | None = None
    slack1: float | None = None
    slack2: float | None = None


@dataclass(frozen=True)
class CaseFlags:
    """Which of the four proven cases hold at the extremal cut."""

    case_i: bool
    case_ii: bool
    case_iii: bool
    case_iv: bool


def bound_report(g: Graph, s: Spectrum,
                 cert: ToughnessCertificate | None = None) -> BoundReport:
    """Evaluate all three bounds; fill slacks when a certificate is given."""
    if g.edge_count == 0:
        raise ValueError("bounds need at least one edge")
    delta = g.min_degree()
    gap = s.mun - delta
    if gap < 1.0 - s.tol:
        # mun >= dmax + 1 >= delta + 1 always holds; anything less is a solver fault
        raise ArithmeticError(
            f"mun - delta = {gap} < 1; eigensolver fault suspected")
    bd0 = s.mu2 / gap
    bd1 = s.mun * s.mu2 / (g.n * gap)
    spread = s.mun - s.mu2
    bd2 = math.inf if spread <= s.tol else s.mu2 / spread
    slack0 = slack1 = slack2 = None
    if cert is not None:
        t = cert.value_float_floor()
        slack0 = t - bd0
        slack1 = t - bd1
        slack2 = t - bd2 if math.isfinite(bd2) else (0.0 if math.isinf(t) else -math.inf)
        if math.isinf(t):
            slack0 = slack1 = slack2 = math.inf
    return BoundReport(n=g.n, delta=delta, mu2=s.mu2, mun=s.mun,
                       bd0=bd0, bd1=bd1, bd2=bd2, ratio=s.mu2 / s.mun,
                       toughness=cert, slack0=slack0, slack1=slack1,
                       slack2=slack2)


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


def _subset_sum_hits(sizes: list[int], target: int) -> bool:
    """Does some nonempty subset of the positive sizes sum to target >= 1?"""
    sums = {0}
    for v in sizes:
        sums |= {s + v for s in sums}
    return target in sums


def detect_prop2_cases(g: Graph, cert: ToughnessCertificate) -> CaseFlags:
    """Decide cases (i)-(iv) from the graph and its extremal certificate."""
    if cert.kind != FINITE:
        raise NotApplicableError("case detection needs a finite certificate")
    comps = components_after_removal(g, cert.s_mask)
    sizes = [m.bit_count() for m in comps]
    rest = g.n - cert.s_mask.bit_count()
    case_i = not g.complement().is_connected()
    case_ii = rest == cert.c
    case_iii = rest % 2 == 0 and _subset_sum_hits(sizes, rest // 2)
    case_iv = cert.c == 2
    return CaseFlags(case_i=case_i, case_ii=case_ii,
                     case_iii=case_iii, case_iv=case_iv)


def toughness_from_ratio(ratio: float) -> float:
    """Largest r such that the eigenratio threshold r/(r+1) is met."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("eigenratio must be in [0, 1) for non-complete graphs")
    return ratio / (1.0 - ratio)
