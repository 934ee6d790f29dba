"""Conversion between Le cycles and Milnor classes, in closed form both ways.

Lambda_k lives in codimension (dim M - k) and vanishes above the dimension
of the singular locus.  With n = dim M and c(L) = 1 + c1(L),

    M = sum_k (-1)^k c(L)^k Lambda_k = (-1)^n line_twist(Lambda^v, c1(L), n),

whose dimension-k piece is sum_l (-1)^(k+l) C(l+k, k) c1(L)^l Lambda_(l+k).
Twisting by -c1(L) undoes twisting by c1(L), so the inverse is

    Lambda = ((-1)^n line_twist(M, -c1(L), n))^v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chow import AmbientSpace, CycleClass
from .bundles import BundleClass, line_twist


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
    """Graded Milnor-class pieces from Le cycles: sum_k (-1)^k c(L)^k Lambda_k."""
    n = le.ambient.dimension
    total = sum(le.classes.values(), le.ambient.zero())
    return milnor_pieces(line_twist(total.dual(), l.c1(), n).scale(-1 if n % 2 else 1))


def milnor_to_le(milnor: dict[int, CycleClass], l: BundleClass,
                 ambient: AmbientSpace | None = None) -> LeCycles:
    """Le cycles of graded Milnor-class pieces: the inverse twist, by -c1(L)."""
    if ambient is None:
        if not milnor:
            raise ValueError("need an ambient to build empty Le data")
        ambient = next(iter(milnor.values())).ambient
    for k, c in milnor.items():
        _check_homogeneous(c, ambient.dimension - k, f"M_{k}")
    n = ambient.dimension
    total = sum(milnor.values(), ambient.zero())
    lam = line_twist(total, -l.c1(), n).scale(-1 if n % 2 else 1).dual()
    return LeCycles(ambient, milnor_pieces(lam))


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
