"""Virtual, CSM, and Milnor classes of stratified hypersurfaces.

All classes are represented by their pushforward in the ambient Chow ring.
For a hypersurface X of a line bundle L on M (dim M = n):

* virtual class  c(TM) c(L)^(-1) c1(L), the Chern class a smoothing would
  have;
* Milnor class via the weighted-strata sum
      M(X) = sum_S gamma_S c(L)^(-1) c^SM(closure S),
  supported on the singular strata;
* CSM class recovered from the definition
      M(X) = (-1)^(dim X) (c^Vir(X) - c^SM(X)).

The mu-class route (cotangent twist against the Segre class of the
singular locus) provides an independent second computation of M(X); its
grading convention is ambient codimension and its global sign is (-1)^n,
both frozen by the hypersurface calibration fixtures in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .chow import AmbientSpace, CycleClass, ProjSpace
from .bundles import (
    BundleClass,
    dual,
    line_polynomial,
    line_powers,
    tangent_bundle,
    tensor_line,
    top_chern,
)
from .strata import StratifiedHypersurface, gamma_weights


@dataclass(frozen=True)
class ClassBundle3:
    """The virtual, CSM and Milnor classes of one hypersurface."""

    virt: CycleClass
    csm: CycleClass
    milnor: CycleClass

    def definition_identity_holds(self) -> bool:
        """milnor = (-1)^(dim M - 1) (virt - csm), exactly."""
        n = self.virt.ambient.dimension
        return self.csm == csm_from_milnor(self.virt, self.milnor, n, 1)


def virtual_class(ambient: AmbientSpace, e: BundleClass, x_class: CycleClass) -> CycleClass:
    """c(TM) c(E)^(-1) cap [X] for X the zero set of a regular section of E."""
    if x_class != top_chern(e):
        raise ValueError(
            "x_class does not equal the top Chern class of the bundle; "
            "not the zero set of a regular section")
    return tangent_bundle(ambient).chern * e.chern.inverse() * x_class


def milnor_pp(hyp: StratifiedHypersurface) -> CycleClass:
    """Weighted-strata Milnor class: sum_S gamma_S c(L)^(-1) c^SM(closure S)."""
    gammas = gamma_weights(hyp)
    l_inv = hyp.line_bundle.chern.inverse()
    total = hyp.ambient.zero()
    for s in hyp.singular_strata:
        g = gammas[s.name]
        if g == 0:
            continue
        total = total + (l_inv * s.csm_closure).scale(g)
    return total


def csm_from_milnor(virt: CycleClass, milnor: CycleClass,
                    dim_m: int, codim: int) -> CycleClass:
    """Rearranged definition: csm = virt - (-1)^(dim_m - codim) milnor."""
    sign = -1 if (dim_m - codim) % 2 else 1
    return virt - milnor.scale(sign)


# -- Aluffi operations -------------------------------------------------------


def aluffi_tensor(a: CycleClass, l: BundleClass) -> CycleClass:
    """sum_j a^(j) c(L)^(-j), the j-th piece twisted j times (ambient grading).

    c(L)^(-j) = (1 + ell)^(-j) = sum_i (-1)^i C(j+i-1, i) ell^i, ell = c1(L).
    """
    if l.rank != 1:
        raise ValueError("aluffi_tensor twists by a line bundle")
    if l.ambient != a.ambient:
        raise ValueError("class and line bundle live on different ambients")
    n = a.ambient.dimension
    powers = line_powers(l.c1(), n)
    out = a.ambient.zero()
    for j, part in a.components():
        if not part:
            continue
        if j == 0:
            out = out + part
            continue
        series = line_polynomial(powers, ((-1) ** i * comb(j + i - 1, i)
                                          for i in range(n - j + 1)))
        out = out + part * series
    return out


def segre_builtin(ambient: AmbientSpace, center: str, arg: int) -> CycleClass:
    """Closed-form Segre classes for the builtin singular-locus shapes.

    points(k): k reduced points, s = k [pt].
    linear(m): a linear P^m in P^n, s = (1+h)^-(n-m) h^(n-m).
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
        codim = n - arg
        return ((ambient.one() + h) ** codim).inverse() * h ** codim
    raise ValueError(
        f"unsupported Segre center {center!r}: only the builtin closed forms "
        "points(k) and linear(m) are available")


def mu_class(hyp: StratifiedHypersurface, segre: CycleClass) -> CycleClass:
    """Aluffi mu-class: c(T*M (x) L) cap s(Sing X, M)."""
    cotangent = dual(tangent_bundle(hyp.ambient))
    twisted = tensor_line(cotangent, hyp.line_bundle)
    return twisted.chern * segre


def aluffi_milnor(hyp: StratifiedHypersurface, mu: CycleClass) -> CycleClass:
    """Milnor class from the mu-class: (-1)^n c(L)^(n-1) (mu^v (x) L).

    Ambient-codimension grading throughout; the global sign (-1)^n is the
    one the calibration fixtures force and is frozen (n = dim M).
    """
    n = hyp.ambient.dimension
    kernel = aluffi_tensor(mu.dual(), hyp.line_bundle)
    result = hyp.line_bundle.chern ** (n - 1) * kernel
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
        csm = csm_from_milnor(virt, milnor, ambient.dimension, 1)
    return ClassBundle3(virt=virt, csm=csm, milnor=milnor)


def hypersurface_classes(hyp: StratifiedHypersurface,
                         csm_override: CycleClass | None = None) -> ClassBundle3:
    """Class triple of a stratified hypersurface, Milnor class by strata."""
    return class_triple(hyp.line_bundle, milnor_pp(hyp), csm_override)
