"""Whitney-stratification data for singular hypersurfaces.

A stratum records the class and CSM class of its closure, its dimension,
and the Euler characteristic of the local Milnor fibre along it.  From
these the inclusion-exclusion weights of the Parusinski-Pragacz formula
are computed.

CSM classes of closures are inputs.  Builtin constructors cover the two
closure shapes every fixture needs: finite reduced point sets and linearly
embedded projective subspaces.  The containment data must list, for each
stratum, *all* strata whose closures contain it (the full up-set, not just
covers); validation enforces transitivity and strict dimension increase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chow import AmbientSpace, CycleClass, ProjSpace
from .bundles import BundleClass, line_twist


class StratificationError(ValueError):
    """Inconsistent stratification data."""


@dataclass(frozen=True)
class Stratum:
    name: str
    dim: int
    milnor_fiber_chi: int
    closure_class: CycleClass
    csm_closure: CycleClass | None = None
    contained_in: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "contained_in", frozenset(self.contained_in))


def point_closure(ambient: AmbientSpace, count: int = 1) -> tuple[CycleClass, CycleClass]:
    """([S], c^SM(S)) for a reduced set of `count` points."""
    if count < 0:
        raise ValueError("negative number of points")
    cls = ambient.point_class().scale(count)
    return cls, cls


def linear_closure(ambient: AmbientSpace, m: int) -> tuple[CycleClass, CycleClass]:
    """([S], c^SM(S)) for a linear P^m inside P^n.

    The CSM class is the pushforward of c(TP^m) cap [P^m], i.e.
    h^(n-m) (1+h)^(m+1), one line twist of [P^m] = h^(n-m).
    """
    if not isinstance(ambient, ProjSpace):
        raise ValueError("linear closures are supported on ProjSpace only")
    n = ambient.dimension
    if not 0 <= m < n:
        raise ValueError(f"linear subspace dimension {m} out of range 0..{n - 1}")
    h = ambient.gen(0)
    cls = h ** (n - m)
    return cls, line_twist(cls, h, n + 1)


@dataclass(frozen=True)
class StratifiedHypersurface:
    """A hypersurface X = Z(s) of a line bundle, with its stratification.

    Exactly one stratum is open (dim = ambient dim - 1, trivial Milnor
    fibre, contained in nothing).  Singular strata need csm_closure data;
    the open stratum's csm_closure is optional oracle input, since the CSM
    class of X itself is what the calculator derives.
    """

    name: str
    ambient: AmbientSpace
    line_bundle: BundleClass
    strata: tuple[Stratum, ...]

    def __post_init__(self) -> None:
        if self.line_bundle.rank != 1:
            raise StratificationError(
                f"{self.name}: hypersurface bundle must be a line bundle")
        if self.line_bundle.ambient != self.ambient:
            raise StratificationError(f"{self.name}: line bundle on wrong ambient")
        self._validate_strata()

    def _validate_strata(self) -> None:
        n = self.ambient.dimension
        names = [s.name for s in self.strata]
        if len(set(names)) != len(names):
            raise StratificationError(f"{self.name}: duplicate stratum names")
        by_name = {s.name: s for s in self.strata}
        opens = [s for s in self.strata if not s.contained_in]
        if len(opens) != 1:
            raise StratificationError(
                f"{self.name}: expected exactly one open stratum, found "
                f"{[s.name for s in opens]}")
        open_stratum = opens[0]
        if open_stratum.dim != n - 1:
            raise StratificationError(
                f"{self.name}: open stratum {open_stratum.name} has dim "
                f"{open_stratum.dim}, expected {n - 1}")
        if open_stratum.milnor_fiber_chi != 1:
            raise StratificationError(
                f"{self.name}: open stratum must have milnor_fiber_chi = 1")
        for s in self.strata:
            for other in s.contained_in:
                if other not in by_name:
                    raise StratificationError(
                        f"{self.name}: stratum {s.name} contained in unknown "
                        f"stratum {other!r}")
                if other == s.name:
                    raise StratificationError(
                        f"{self.name}: stratum {s.name} contains itself")
                if by_name[other].dim <= s.dim:
                    raise StratificationError(
                        f"{self.name}: containment {s.name} < {other} does not "
                        f"increase dimension (cycle or bad data)")
                missing = by_name[other].contained_in - s.contained_in
                if missing:
                    raise StratificationError(
                        f"{self.name}: containment of {s.name} is not "
                        f"transitive; missing {sorted(missing)}")
            if s.closure_class.ambient != self.ambient:
                raise StratificationError(
                    f"{self.name}: closure class of {s.name} on wrong ambient")
            closure, codim = s.closure_class, n - s.dim
            if closure.part(codim, codim) != closure:
                k = next(k for k in range(n + 1) if k != codim and closure.component(k))
                raise StratificationError(
                    f"{self.name}: closure class of {s.name} has a part in "
                    f"codimension {k}, expected pure codimension {codim}")
            if s.name != open_stratum.name and s.csm_closure is None:
                raise StratificationError(
                    f"{self.name}: singular stratum {s.name} needs csm_closure data")

    @property
    def open_stratum(self) -> Stratum:
        return next(s for s in self.strata if not s.contained_in)

    @property
    def singular_strata(self) -> tuple[Stratum, ...]:
        open_name = self.open_stratum.name
        return tuple(s for s in self.strata if s.name != open_name)


def mu_weight(s: Stratum, hyp: StratifiedHypersurface) -> int:
    """Local Milnor number of the hypersurface along the stratum.

    (-1)^(dim X) (chi(F_x) - 1) with dim X = ambient dim - 1.  The sign is
    pinned by the nodal-cubic oracle (a node must weigh +1); see the
    conventions note in the README.
    """
    sign = -1 if (hyp.ambient.dimension - 1) % 2 else 1
    return sign * (s.milnor_fiber_chi - 1)


def gamma_weights(hyp: StratifiedHypersurface) -> dict[str, int]:
    """Inclusion-exclusion weights: gamma_S = mu_S - sum over S' > S of gamma_S'.

    Computed by descending dimension; the open stratum always gets 0.
    """
    gammas: dict[str, int] = {}
    for s in sorted(hyp.strata, key=lambda s: -s.dim):
        gammas[s.name] = mu_weight(s, hyp) - sum(gammas[o] for o in s.contained_in)
    return gammas
