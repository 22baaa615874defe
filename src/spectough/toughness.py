"""Exact toughness with certificates.

t(G) is the minimum of |S| / c(G - S) over the cuts S that leave G - S
disconnected, so a certificate is one optimal cut S and its component
count c, and the value is the exact Fraction |S| / c.  Complete graphs
(no cut: infinitely tough) and disconnected ones (toughness 0) have no
certificate.  How an exact value meets a float bound is scan's policy,
decided beside ``scan._status``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import _kernels
from .graphs import Graph


class ToughnessCertificate(NamedTuple):
    """An extremal cut: the vertex set S and the component count of G - S."""

    s_mask: int
    c: int

    @property
    def value(self) -> Fraction:
        """The exact toughness |S| / c."""
        return Fraction(self.s_mask.bit_count(), self.c)


def exact_toughness(g: Graph) -> ToughnessCertificate:
    """Globally optimal toughness certificate by pruned subset search.

    The graph must be connected and not complete; anything else raises
    ValueError.  The pruned kernel search returns the deterministic
    optimum (smallest ratio, then smallest |S|, then lexicographically
    smallest S).
    """
    if g.is_complete() or not g.is_connected():
        raise ValueError("a toughness certificate needs a connected, "
                         "non-complete graph")
    _, den, mask = _kernels.toughness_search(g.n, g.adj)
    if den == 0:  # connected non-complete graphs always have a cut
        raise AssertionError("toughness search found no admissible cut")
    return ToughnessCertificate(s_mask=mask, c=den)
