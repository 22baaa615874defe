"""Exact toughness with certificates.

The toughness value is kept as an exact Fraction everywhere; it is only
turned into a float (rounded one ulp toward -inf) when compared against
spectral bounds, so float noise can never fabricate a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .graphs import Graph

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

    def value_str(self) -> str:
        return "inf" if self.kind == INFINITE else str(self.value)

    def value_float_floor(self) -> float:
        """Float value rounded one ulp toward -inf (conservative for bound checks)."""
        if self.kind == INFINITE:
            return math.inf
        if self.kind == ZERO:
            return 0.0
        return math.nextafter(self.value.numerator / self.value.denominator,
                              -math.inf)


def exact_toughness(g: Graph) -> ToughnessCertificate:
    """Globally optimal toughness certificate by pruned subset search.

    Complete graphs are infinitely tough; disconnected graphs have
    toughness 0 with the empty cut.  Otherwise the pruned kernel search
    returns the deterministic optimum (smallest ratio, then smallest |S|,
    then lexicographically smallest S).
    """
    if g.is_complete():
        return ToughnessCertificate(kind=INFINITE)
    if not g.is_connected():
        return ToughnessCertificate(kind=ZERO, value=Fraction(0))
    num, den, mask = _kernels.toughness_search(g.n, g.adj)
    if den == 0:  # connected non-complete graphs always have a cut
        raise AssertionError("toughness search found no admissible cut")
    return ToughnessCertificate(kind=FINITE, s_mask=mask, c=den,
                                value=Fraction(num, den))


def is_r_tough(g: Graph, r: Fraction | int) -> bool:
    """Exact rational comparison t(G) >= r."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    cert = exact_toughness(g)
    if cert.kind == INFINITE:
        return True
    if cert.kind == ZERO:
        return r == 0
    return cert.value >= r
