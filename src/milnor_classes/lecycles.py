"""Conversion between Le cycles and Milnor classes, in closed form both ways.

Lambda_k lives in codimension (dim M - k) and vanishes above the dimension
of the singular locus, so the total class Lambda = sum_k Lambda_k fixes
every piece; both directions take and return total classes.  With
n = dim M and c(L) = 1 + c1(L),

    M = sum_k (-1)^k c(L)^k Lambda_k = (-1)^n line_twist(Lambda^v, c1(L), n),

whose dimension-k piece is sum_l (-1)^(k+l) C(l+k, k) c1(L)^l Lambda_(l+k).
Twisting by -c1(L) undoes twisting by c1(L), so the inverse is

    Lambda = ((-1)^n line_twist(M, -c1(L), n))^v.
"""

from __future__ import annotations

from .chow import CycleClass, line_twist
from .bundles import BundleClass


def le_to_milnor(lam: CycleClass, l: BundleClass) -> CycleClass:
    """Total Milnor class of the total Le class: sum_k (-1)^k c(L)^k Lambda_k."""
    n = lam.ambient.dimension
    return line_twist(lam.dual(), l.c1(), n).scale(-1 if n % 2 else 1)


def milnor_to_le(milnor: CycleClass, l: BundleClass) -> CycleClass:
    """Total Le class of a total Milnor class: the inverse twist, by -c1(L)."""
    n = milnor.ambient.dimension
    return line_twist(milnor, -l.c1(), n).scale(-1 if n % 2 else 1).dual()
