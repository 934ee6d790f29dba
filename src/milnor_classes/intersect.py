"""The five Milnor-class formulas for transversal hypersurface intersections.

For X = X_1 cap ... cap X_r inside M (dim n), all products taken in the
ambient ring:

* selector sum  : (-1)^(nr-n) c((TM)^(+(r-1)))^(-1) cap
                  sum over selectors != all-CSM of
                  (-1)^(sum (n-d_i) eps_i) P_1 ... P_r,
                  P_i = Milnor or CSM class of X_i;
* telescoped sum: (-1)^(r-1) c((TM)^(+(r-1)))^(-1) cap
                  sum_i S_1...S_{i-1} M(X_i) V_{i+1}...V_r
                  (the selection table with V_{j+1} for j >= i, S_j below);
* virtual difference: (-1)^(n-r) c((TM)^(+(r-1)))^(-1) cap (prod V - prod S);
* stratum expansions: the per-stratum weighted forms, either expanding
  each M(X_i) by its strata (milnor_pp_ais) or expanding everything into a
  sum over stratum tuples with CSM-closure kernels (milnor_pp_full).  The
  pp_full kernel prod c(L_i)^(eps_i) / c(L_1 + ... + L_r) keeps only
  c(L_i)^(-1) for the factors off the regular stratum (eps_i = 0); the
  tuples are summed per eps pattern, and each sum is divided once by those
  1 + c1(L_i).

c((TM)^(+(r-1)))^(-1) is the product over the Chern roots of TM with
multiplicities times -(r-1), expanded once per ambient and r
(`_inv_tangent_power`).

An intersection is one record per member: its class triple, which also
carries its strata when it has them (`ClassBundle3.hyp`).  The stratum
expansions read those strata through `IntersectionScenario.strata`, which
rejects a member without them.

FORMULAS registers them as thm41, cor11, cor12, pp_ais and pp_full.  Each
hypersurface's Milnor class already comes from its strata, so pp_ais
equals cor11 by construction.  All five agree exactly whenever each input
triple satisfies the definition identity; cross_validate returns each
selected formula's class, and `agree` is the one test of that agreement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .chow import AmbientSpace, CycleClass
from .bundles import chern_roots, tangent_bundle, times_chern
from .charclass import ClassBundle3, milnor_pp
from .strata import StratifiedHypersurface, gamma_weights


@dataclass(frozen=True)
class IntersectionScenario:
    ambient: AmbientSpace
    classes: tuple[ClassBundle3, ...]

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ValueError(
                f"intersection formulas need r >= 2 hypersurfaces, got {len(self.classes)}")
        for i, cb in enumerate(self.classes):
            # identity first: ProjBundle equality recurses through the tower
            if any(c.ambient is not self.ambient and c.ambient != self.ambient
                   for c in (cb.virt, cb.csm, cb.milnor)):
                raise ValueError(f"member {i} has a class on a different ambient")

    @property
    def r(self) -> int:
        return len(self.classes)

    def strata(self) -> tuple[StratifiedHypersurface, ...]:
        """Every member's strata, for the per-stratum formulas."""
        for i, cb in enumerate(self.classes):
            if cb.hyp is None:
                raise ValueError(f"member {i} has no strata; the per-stratum "
                                 "formulas need them on every member")
        return tuple(cb.hyp for cb in self.classes)


@lru_cache(maxsize=None)
def _inv_tangent_power(ambient: AmbientSpace, copies: int) -> CycleClass:
    """c((TM)^(+copies))^(-1), cached per ambient (pure-function cache)."""
    return times_chern(ambient.one(), chern_roots(tangent_bundle(ambient), -copies))


def selector_terms(sc: IntersectionScenario) -> list[tuple[tuple[int, ...], int, CycleClass]]:
    """All (selector, sign, product) terms of the selector-sum formula.

    Selector entry 1 picks the CSM class, 0 the Milnor class; the all-CSM
    selector is excluded.  The sign includes the global (-1)^(nr-n)
    prefactor so the r = 2 terms can be compared against the expanded form
    (-1)^n M1 M2 + (-1)^(d1) S1 M2 + (-1)^(d2) M1 S2 term by term.
    """
    n = sc.ambient.dimension
    r = sc.r
    prefactor_sign = -1 if (n * (r - 1)) % 2 else 1
    terms = []
    for selector in itertools.product((0, 1), repeat=r):
        if all(selector):
            continue
        # every factor is a hypersurface: codimension d_i = 1
        exponent = (n - 1) * sum(selector)
        sign = prefactor_sign * (-1 if exponent % 2 else 1)
        product = sc.ambient.one()
        for i, e in enumerate(selector):
            product = product * (sc.classes[i].csm if e else sc.classes[i].milnor)
        terms.append((selector, sign, product))
    return terms


def milnor_thm41(sc: IntersectionScenario) -> CycleClass:
    """Selector-sum formula over all Milnor/CSM choices except all-CSM."""
    total = sc.ambient.zero()
    for _, sign, product in selector_terms(sc):
        total = total + product.scale(sign)
    return _inv_tangent_power(sc.ambient, sc.r - 1) * total


def telescoped_sum(virts: list[CycleClass], csms: list[CycleClass],
                   milnors: list[CycleClass]) -> CycleClass:
    """(-1)^(r-1) c((TM)^(+(r-1)))^(-1) sum_i S_1..S_{i-1} M_i V_{i+1}..V_r.

    The selection table reads a_{j,i} = virtual class of X_{j+1} for
    j >= i and CSM class of X_j for j < i; this is the unique table
    consistent with the telescoping identity
    prod V - prod S = sum_i S_1..S_{i-1} (V_i - S_i) V_{i+1}..V_r.
    """
    r = len(virts)
    ambient = virts[0].ambient
    total = ambient.zero()
    for i in range(1, r + 1):
        term = milnors[i - 1]
        for j in range(1, r):
            factor = virts[j] if j >= i else csms[j - 1]
            term = term * factor
        total = total + term
    total = total.scale(-1 if (r - 1) % 2 else 1)
    return _inv_tangent_power(ambient, r - 1) * total


def milnor_cor11(sc: IntersectionScenario) -> CycleClass:
    """Telescoped sum over which factor contributes its Milnor class."""
    return telescoped_sum([cb.virt for cb in sc.classes],
                          [cb.csm for cb in sc.classes],
                          [cb.milnor for cb in sc.classes])


def milnor_cor12(sc: IntersectionScenario) -> CycleClass:
    """Virtual-difference formula: (-1)^(n-r) c^(-1) (prod V - prod S)."""
    ambient = sc.ambient
    prod_v = ambient.one()
    prod_s = ambient.one()
    for cb in sc.classes:
        prod_v = prod_v * cb.virt
        prod_s = prod_s * cb.csm
    n = ambient.dimension
    sign = -1 if (n - sc.r) % 2 else 1
    return _inv_tangent_power(ambient, sc.r - 1) * (prod_v - prod_s).scale(sign)


def milnor_pp_ais(sc: IntersectionScenario) -> CycleClass:
    """Telescoped sum with each factor's Milnor class expanded into its strata."""
    return telescoped_sum([cb.virt for cb in sc.classes],
                          [cb.csm for cb in sc.classes],
                          [milnor_pp(h) for h in sc.strata()])


def milnor_pp_full(sc: IntersectionScenario) -> CycleClass:
    """Full per-stratum expansion of the intersection Milnor class.

    The sum over stratum tuples (S_1, ..., S_r) != (all regular parts) with
    coefficient (-1)^((n-1) sum eps) prod gamma^(1-eps) and kernel
    prod c(L_i)^(eps_i) / c(L_1 + ... + L_r) cap prod c^SM(closure S_i),
    eps_i = 1 exactly on the regular stratum.  The kernel is
    prod_(eps_i = 0) c(L_i)^(-1), one division per eps pattern.
    """
    ambient = sc.ambient
    n = ambient.dimension
    r = sc.r

    hyps = sc.strata()
    per_hyp: list[list[tuple[int, int, CycleClass]]] = []
    for idx, hyp in enumerate(hyps):
        gammas = gamma_weights(hyp)
        open_name = hyp.open_stratum.name
        choices = []
        for s in hyp.strata:
            if s.name == open_name:
                # eps = 1: gamma never enters; closure CSM is the CSM of X_i
                choices.append((1, 1, sc.classes[idx].csm))
            else:
                g = gammas[s.name]
                if g == 0:
                    continue
                choices.append((0, g, s.csm_closure))
        per_hyp.append(choices)

    # the stratum-tuple sum of each eps pattern, before its division
    by_pattern: dict[tuple[int, ...], CycleClass] = {}
    for combo in itertools.product(*per_hyp):
        pattern = tuple(eps for eps, _, _ in combo)
        eps_sum = sum(pattern)
        if eps_sum == r:
            continue
        coeff = math.prod(g for _, g, _ in combo)  # g = 1 on the regular stratum
        if (n - 1) * eps_sum % 2:
            coeff = -coeff
        product = combo[0][2]
        for _, _, csm_closure in combo[1:]:
            product = product * csm_closure
        by_pattern[pattern] = by_pattern.get(pattern, ambient.zero()) + product.scale(coeff)
    total = ambient.zero()
    for pattern, part in by_pattern.items():
        roots = [root for eps, hyp in zip(pattern, hyps) if not eps
                 for root in chern_roots(hyp.line_bundle, -1)]
        total = total + times_chern(part, roots)
    prefactor_sign = -1 if (n * (r - 1)) % 2 else 1
    return (_inv_tangent_power(ambient, r - 1) * total).scale(prefactor_sign)


FORMULAS = {
    "thm41": milnor_thm41,
    "cor11": milnor_cor11,
    "cor12": milnor_cor12,
    "pp_ais": milnor_pp_ais,
    "pp_full": milnor_pp_full,
}


def cross_validate(sc: IntersectionScenario,
                   formulas: tuple[str, ...] | None = None) -> dict[str, CycleClass]:
    """Each selected formula's class (all of FORMULAS by default), in order.

    Disagreements are report content, not errors (see `agree`).  Callers
    that assemble scenarios from partial data (Le-only hypersurfaces)
    restrict the formula selection themselves.
    """
    names = formulas if formulas is not None else tuple(FORMULAS)
    out = {}
    for name in names:
        if name not in FORMULAS:
            raise ValueError(f"unknown formula {name!r}; choose from {sorted(FORMULAS)}")
        out[name] = FORMULAS[name](sc)
    return out


def agree(values: Iterable[CycleClass]) -> bool:
    """Whether the classes are all exactly equal."""
    values = list(values)
    return all(v == values[0] for v in values[1:])
