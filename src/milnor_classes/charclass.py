"""Virtual, CSM, and Milnor classes of stratified hypersurfaces.

All classes are represented by their pushforward in the ambient Chow ring.
For a hypersurface X of a line bundle L on M (dim M = n):

* virtual class  c(TM) c(L)^(-1) c1(L), the Chern class a smoothing would
  have: c(TM) c1(L), divided by 1 + c1(L);
* Milnor class via the weighted-strata sum
      M(X) = c(L)^(-1) sum_S gamma_S c^SM(closure S),
  supported on the singular strata, with one division by 1 + c1(L);
* CSM class recovered from the definition
      M(X) = (-1)^(dim X) (c^Vir(X) - c^SM(X)).

The mu-class route (cotangent twist against the Segre class of the
singular locus) provides an independent second computation of M(X); its
grading convention is ambient codimension and its global sign is (-1)^n,
both frozen by the hypersurface calibration fixtures in the test suite.
Aluffi's a (x) L, the linear Segre class and the route's c(L)^(n-1) factor
are each one call of the line-twist kernel `bundles.line_twist`; the
cotangent twist c(T*M (x) L) enters through its Chern roots ell - x.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .chow import AmbientSpace, CycleClass, ProjSpace
from .bundles import (
    BundleClass,
    chern_roots,
    line_twist,
    times_chern,
    top_chern,
    twist_chern,
)
from .strata import StratifiedHypersurface, gamma_weights


@dataclass(frozen=True)
class ClassBundle3:
    """The virtual, CSM and Milnor classes of one hypersurface, and its strata
    when it has them (they do not enter equality)."""

    virt: CycleClass
    csm: CycleClass
    milnor: CycleClass
    hyp: StratifiedHypersurface | None = field(default=None, compare=False)

    def definition_identity_holds(self) -> bool:
        """milnor = (-1)^(dim M - 1) (virt - csm), exactly."""
        return self.csm == csm_from_milnor(self.virt, self.milnor)


def virtual_class(ambient: AmbientSpace, e: BundleClass, x_class: CycleClass) -> CycleClass:
    """c(TM) c(E)^(-1) cap [X] for X the zero set of a regular section of E."""
    if x_class != top_chern(e):
        raise ValueError(
            "x_class does not equal the top Chern class of the bundle; "
            "not the zero set of a regular section")
    return times_chern(ambient.tangent_chern * x_class, chern_roots(e, -1))


def milnor_pp(hyp: StratifiedHypersurface) -> CycleClass:
    """Weighted-strata Milnor class: c(L)^(-1) sum_S gamma_S c^SM(closure S)."""
    gammas = gamma_weights(hyp)
    total = hyp.ambient.zero()
    for s in hyp.singular_strata:
        g = gammas[s.name]
        if g:
            total = total + s.csm_closure.scale(g)
    return times_chern(total, chern_roots(hyp.line_bundle, -1))


def csm_from_milnor(virt: CycleClass, milnor: CycleClass) -> CycleClass:
    """Rearranged definition: csm = virt - (-1)^(dim M - 1) milnor."""
    sign = -1 if (virt.ambient.dimension - 1) % 2 else 1
    return virt - milnor.scale(sign)


# -- Aluffi operations -------------------------------------------------------


def segre_builtin(ambient: AmbientSpace, center: str, arg: int) -> CycleClass:
    """Closed-form Segre classes for the builtin singular-locus shapes.

    points(k): k reduced points, s = k [pt].
    linear(m): a linear P^m in P^n, s = (1+h)^-(n-m) h^(n-m), the Aluffi
    twist h^(n-m) (x) O(1).
    Anything else needs scheme-theoretic Segre machinery that this
    calculator deliberately does not contain.
    """
    if center == "points":
        if arg < 0:
            raise ValueError("points(k) needs k >= 0")
        return ambient.point_class().scale(arg)
    if center == "linear":
        if not isinstance(ambient, ProjSpace):
            raise ValueError("linear Segre centers are supported on ProjSpace only")
        n = ambient.dimension
        if not 0 <= arg < n:
            raise ValueError(f"linear({arg}) out of range in P^{n}")
        h = ambient.gen(0)
        return line_twist(h ** (n - arg), h, 0)
    raise ValueError(
        f"unsupported Segre center {center!r}: only the builtin closed forms "
        "points(k) and linear(m) are available")


def mu_class(hyp: StratifiedHypersurface, segre: CycleClass) -> CycleClass:
    """Aluffi mu-class: c(T*M (x) L) cap s(Sing X, M).

    T*M (x) L has the roots ell - x for the roots x of TM (ell = c1(L)); on
    P^n they are {ell - h: n+1, ell: -1}.  Without tangent roots the twist
    is expanded.
    """
    ambient = hyp.ambient
    ell = hyp.line_bundle.c1()
    if ambient.tangent_roots is None:
        return twist_chern(ambient.tangent_chern.dual(), ambient.dimension, ell) * segre
    return times_chern(segre, [(ell - x, m) for x, m in ambient.tangent_roots])


def aluffi_milnor(hyp: StratifiedHypersurface, mu: CycleClass) -> CycleClass:
    """Milnor class from the mu-class: (-1)^n c(L)^(n-1) (mu^v (x) L).

    That is (-1)^n sum_k (mu^v)^(k) c(L)^(n-1-k), one line twist.  Ambient-
    codimension grading throughout; the global sign (-1)^n is the one the
    calibration fixtures force and is frozen (n = dim M).
    """
    n = hyp.ambient.dimension
    result = line_twist(mu.dual(), hyp.line_bundle.c1(), n - 1)
    return result.scale(-1 if n % 2 else 1)


# -- assembly ----------------------------------------------------------------


def class_triple(l: BundleClass, milnor: CycleClass,
                 csm_oracle: CycleClass | None = None) -> ClassBundle3:
    """Class triple of a hypersurface of the line bundle L with Milnor class M.

    The CSM class comes from the definition, unless an explicit CSM oracle
    is supplied (used by fixtures to cross-check, and by negative controls
    to detect corrupted strata data instead of staying self-consistent).
    """
    ambient = l.ambient
    virt = virtual_class(ambient, l, l.c1())
    if csm_oracle is not None:
        csm = csm_oracle
    else:
        csm = csm_from_milnor(virt, milnor)
    return ClassBundle3(virt=virt, csm=csm, milnor=milnor)


def hypersurface_classes(hyp: StratifiedHypersurface,
                         csm_override: CycleClass | None = None) -> ClassBundle3:
    """Class triple of a stratified hypersurface, Milnor class by strata; the
    strata ride along for the per-stratum intersection formulas."""
    return replace(class_triple(hyp.line_bundle, milnor_pp(hyp), csm_override), hyp=hyp)
