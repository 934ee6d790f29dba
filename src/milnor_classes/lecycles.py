"""Triangular conversion between Le cycles and Milnor classes.

Lambda_k lives in codimension (dim M - k) and vanishes above the dimension
of the singular locus.  The conversion

    M_k = sum_{l >= 0} (-1)^(k+l) C(l+k, k) c1(L)^l Lambda_{l+k}

is triangular with unit diagonal (up to sign), so it inverts exactly by
back-substitution from the top dimension downward.  The sum runs until the
Le data is exhausted, which subsumes any finite upper limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .chow import AmbientSpace, CycleClass
from .bundles import BundleClass


@dataclass(frozen=True, eq=False)
class LeCycles:
    """Graded Le-cycle data: classes[k] has codimension dim M - k."""

    ambient: AmbientSpace
    classes: dict[int, CycleClass] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for k, c in self.classes.items():
            if c.ambient != self.ambient:
                raise ValueError(f"Lambda_{k} lives on a different ambient")
            _check_homogeneous(c, self.ambient.dimension - k, f"Lambda_{k}")
            if not c.is_zero():
                cleaned[int(k)] = c
        object.__setattr__(self, "classes", cleaned)

    def __getitem__(self, k: int) -> CycleClass:
        return self.classes.get(k, self.ambient.zero())

    def max_index(self) -> int:
        return max(self.classes, default=-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeCycles):
            return NotImplemented
        return self.ambient == other.ambient and self.classes == other.classes


def _check_homogeneous(c: CycleClass, codim: int, label: str) -> None:
    for mono in c.coeffs:
        if sum(mono) != codim:
            raise ValueError(
                f"{label} must be homogeneous of codimension {codim}, "
                f"found a codimension-{sum(mono)} term")


def le_to_milnor(le: LeCycles, l: BundleClass) -> dict[int, CycleClass]:
    """Graded Milnor-class pieces from Le cycles (the forward sum)."""
    c1 = l.c1()
    out: dict[int, CycleClass] = {}
    top = le.max_index()
    for k in range(top + 1):
        piece = le.ambient.zero()
        power = le.ambient.one()
        for ell in range(top - k + 1):
            lam = le[ell + k]
            if not lam.is_zero():
                sign = -1 if (k + ell) % 2 else 1
                piece = piece + (power * lam).scale(sign * comb(ell + k, k))
            power = power * c1
        if not piece.is_zero():
            out[k] = piece
    return out


def milnor_to_le(milnor: dict[int, CycleClass], l: BundleClass,
                 ambient: AmbientSpace | None = None) -> LeCycles:
    """Invert the conversion by back-substitution from the top index down."""
    if ambient is None:
        if not milnor:
            raise ValueError("need an ambient to build empty Le data")
        ambient = next(iter(milnor.values())).ambient
    for k, c in milnor.items():
        _check_homogeneous(c, ambient.dimension - k, f"M_{k}")
    c1 = l.c1()
    top = max((k for k, c in milnor.items() if not c.is_zero()), default=-1)
    lam: dict[int, CycleClass] = {}
    for k in range(top, -1, -1):
        # M_k = (-1)^k Lambda_k + (tail in Lambda_{k+1}, ...)
        tail = ambient.zero()
        power = ambient.one()
        for ell in range(1, top - k + 1):
            power = power * c1
            higher = lam.get(ell + k)
            if higher is not None:
                sign = -1 if (k + ell) % 2 else 1
                tail = tail + (power * higher).scale(sign * comb(ell + k, k))
        diag_sign = -1 if k % 2 else 1
        piece = (milnor.get(k, ambient.zero()) - tail).scale(diag_sign)
        if not piece.is_zero():
            lam[k] = piece
    return LeCycles(ambient, lam)


def milnor_pieces(total: CycleClass) -> dict[int, CycleClass]:
    """Split a total (inhomogeneous) Milnor class into its dimension pieces."""
    n = total.ambient.dimension
    return {n - codim: part for codim, part in total.components() if part}


def milnor_from_le_intersection(hyps_le: list[tuple["LeCycles", BundleClass]],
                                virts: list[CycleClass],
                                csms: list[CycleClass]) -> CycleClass:
    """Milnor class of an intersection from per-hypersurface Le data.

    Evaluates the conversion sum per grade for each hypersurface and feeds
    the assembled totals through the telescoping intersection formula.  The
    degenerate single-hypersurface case reduces to the plain conversion
    (empty selection product).
    """
    from .intersect import telescoped_sum

    if not hyps_le:
        raise ValueError("need at least one hypersurface")
    if not len(hyps_le) == len(virts) == len(csms):
        raise ValueError("per-hypersurface class data is incomplete")
    milnors = [sum(le_to_milnor(le, l).values(), le.ambient.zero())
               for le, l in hyps_le]
    if len(milnors) == 1:
        return milnors[0]
    return telescoped_sum(virts, csms, milnors)
