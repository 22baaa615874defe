"""Exact toughness with certificates, plus the component-partition step
used by the cut-separation argument.

The toughness value is kept as an exact Fraction everywhere; it is only
turned into a float (rounded one ulp toward -inf) when compared against
spectral bounds, so float noise can never fabricate a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _kernels
from .errors import CapacityError, NotApplicableError
from .graphs import Graph

DEFAULT_TOUGHNESS_CAP = 14

FINITE = "finite"
INFINITE = "infinite"
ZERO = "zero"


@dataclass(frozen=True)
class ToughnessCertificate:
    """Extremal cut witness: kind, the cut S, its component count, exact value."""

    kind: str
    s_mask: int = 0
    c: int = 0
    value: Fraction | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def value_str(self) -> str:
        if self.kind == INFINITE:
            return "inf"
        if self.kind == ZERO:
            return "0"
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def value_float_floor(self) -> float:
        """Float value rounded one ulp toward -inf (conservative for bound checks)."""
        if self.kind == INFINITE:
            return math.inf
        if self.kind == ZERO:
            return 0.0
        return math.nextafter(self.value.numerator / self.value.denominator,
                              -math.inf)


def exact_toughness(g: Graph, cap: int = DEFAULT_TOUGHNESS_CAP) -> ToughnessCertificate:
    """Globally optimal toughness certificate by pruned subset search.

    Complete graphs are infinitely tough; disconnected graphs have
    toughness 0 with the empty cut.  Otherwise the pruned kernel search
    returns the deterministic optimum (smallest ratio, then smallest |S|,
    then lexicographically smallest S).
    """
    if g.n > cap:
        raise CapacityError(
            f"toughness search needs n <= {cap}, got n={g.n}; raise the cap explicitly")
    if g.is_complete():
        return ToughnessCertificate(kind=INFINITE)
    if not g.is_connected():
        return ToughnessCertificate(kind=ZERO, value=Fraction(0))
    num, den, mask = _kernels.toughness_search(g.n, g.adj)
    if den == 0:  # connected non-complete graphs always have a cut
        raise AssertionError("toughness search found no admissible cut")
    return ToughnessCertificate(kind=FINITE, s_mask=mask, c=den,
                                value=Fraction(num, den))


def is_r_tough(g: Graph, r: Fraction | int,
               cap: int = DEFAULT_TOUGHNESS_CAP) -> bool:
    """Exact rational comparison t(G) >= r."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    cert = exact_toughness(g, cap=cap)
    if cert.kind == INFINITE:
        return True
    if cert.kind == ZERO:
        return r == 0
    return cert.value >= r


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
