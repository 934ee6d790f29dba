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

from typing import Iterable

from .chow import AmbientSpace, CycleClass, ProjSpace, line_twist, same_ambient
from .bundles import BundleClass


class StratificationError(ValueError):
    """Inconsistent stratification data."""


class Stratum:
    __slots__ = ("name", "dim", "milnor_fiber_chi", "closure_class", "csm_closure",
                 "contained_in")

    def __init__(self, name: str, dim: int, milnor_fiber_chi: int,
                 closure_class: CycleClass, csm_closure: CycleClass | None = None,
                 contained_in: Iterable[str] = ()):
        self.name = name
        self.dim = dim
        self.milnor_fiber_chi = milnor_fiber_chi
        self.closure_class = closure_class
        self.csm_closure = csm_closure
        self.contained_in = frozenset(contained_in)


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


class StratifiedHypersurface:
    """A hypersurface X = Z(s) of a line bundle, with its stratification.

    Exactly one stratum is open (dim = ambient dim - 1, trivial Milnor
    fibre, contained in nothing), and its closure class is c1 of the line
    bundle.  Singular strata need csm_closure data.  The open stratum's
    csm_closure may be given and is checked like any other, but no route
    reads it: the CSM class of X itself is what the calculator derives.
    """

    __slots__ = ("name", "ambient", "line_bundle", "strata")

    def __init__(self, name: str, ambient: AmbientSpace, line_bundle: BundleClass,
                 strata: tuple[Stratum, ...]):
        self.name = name
        self.ambient = ambient
        self.line_bundle = line_bundle
        self.strata = strata
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.line_bundle.rank != 1:
            raise StratificationError(
                f"{self.name}: hypersurface bundle must be a line bundle")
        if not same_ambient(self.line_bundle.ambient, self.ambient):
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
            if not same_ambient(s.closure_class.ambient, self.ambient):
                raise StratificationError(
                    f"{self.name}: closure class of {s.name} on wrong ambient")
            closure, codim = s.closure_class, n - s.dim
            if closure.part(codim, codim) != closure:
                k = next(k for k in range(n + 1) if k != codim and closure.component(k))
                raise StratificationError(
                    f"{self.name}: closure class of {s.name} has a part in "
                    f"codimension {k}, expected pure codimension {codim}")
            csm = s.csm_closure
            if csm is None:
                if s.name != open_stratum.name:
                    raise StratificationError(
                        f"{self.name}: singular stratum {s.name} needs csm_closure data")
                continue
            if not same_ambient(csm.ambient, self.ambient):
                raise StratificationError(
                    f"{self.name}: csm_closure of {s.name} on wrong ambient")
            # c^SM(closure) = [closure] + parts of higher codimension
            if csm.part(0, codim) != closure:
                k = next(k for k in range(codim + 1) if csm.part(k, k) != closure.part(k, k))
                raise StratificationError(
                    f"{self.name}: csm_closure of {s.name} differs from its closure class "
                    f"in codimension {k}; it must equal the closure class in codimension "
                    f"{codim} and vanish below")
        if open_stratum.closure_class != self.line_bundle.c1():
            raise StratificationError(
                f"{self.name}: closure class of the open stratum {open_stratum.name} is "
                f"{open_stratum.closure_class.render()}, expected c1 of the line bundle, "
                f"{self.line_bundle.c1().render()}")

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
