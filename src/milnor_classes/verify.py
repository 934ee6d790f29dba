"""Seeded property suites behind the verify subcommand.

Each suite is a list of named properties; a property draws its own random
cases from a deterministic generator and raises AssertionError on the
first counterexample.  SUITES is the one statement of every randomized
property: the verify subcommand runs it with an explicit seed and stable
output, and pytest runs every suite on seeds 0, 1 and 2
(tests/test_verify_suites.py).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .chow import MultiProj, ProjBundle, ProjSpace, parse_class
from .bundles import (
    direct_sum,
    dual,
    line_bundle,
    tensor_line,
    top_chern,
    trivial_bundle,
)
from .charclass import (
    aluffi_milnor,
    class_triple,
    hypersurface_classes,
    milnor_pp,
    mu_class,
    segre_builtin,
    virtual_class,
)
from .intersect import IntersectionScenario, cross_validate, milnor_cor11, selector_terms
from .lecycles import le_to_milnor, milnor_to_le
from .projbundle import (
    GeneralCaseInput,
    flat_pullback_check,
    grothendieck_residual,
    lemma_transfer,
    make_bundle_ring,
    milnor_general,
    projection_formula_check,
    verify_tangent_identities,
)
from .strata import (
    StratifiedHypersurface,
    Stratum,
    linear_closure,
    point_closure,
)

AMBIENTS = [ProjSpace(2), ProjSpace(3), MultiProj((1, 1)), MultiProj((2, 1))]


def _random_class(rng: random.Random, ambient, terms=5, lo=-9, hi=9):
    caps = [g.cap for g in ambient.generators]
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        mono = tuple(rng.randint(0, cap) for cap in caps)
        coeffs[mono] = rng.randint(lo, hi)
    return ambient.from_coeffs(coeffs)


def _random_unit(rng: random.Random, ambient):
    a = _random_class(rng, ambient)
    return a - a.component(0) + ambient.from_int(rng.choice([1, -1]))


def _random_split(rng: random.Random, ambient, max_rank=4):
    e = trivial_bundle(ambient, 0)
    for _ in range(rng.randint(0, max_rank)):
        degs = tuple(rng.randint(-3, 3) for _ in ambient.generators)
        e = direct_sum(e, line_bundle(ambient, degs))
    return e


def random_hypersurface(rng: random.Random, ambient, name="X"):
    n = ambient.dimension
    d = rng.randint(1, 3)
    lb = line_bundle(ambient, d)
    strata = [Stratum("reg", dim=n - 1, milnor_fiber_chi=1, closure_class=lb.c1())]
    kind = rng.choice(["smooth", "points", "points", "line", "chain"])
    if kind in ("line", "chain") and n < 3:
        kind = "points"
    if kind == "points":
        cl, csm = point_closure(ambient, rng.randint(1, 3))
        strata.append(Stratum("pts", dim=0,
                              milnor_fiber_chi=rng.choice([-2, -1, 0, 2, 3]),
                              closure_class=cl, csm_closure=csm,
                              contained_in={"reg"}))
    elif kind in ("line", "chain"):
        cl, csm = linear_closure(ambient, 1)
        strata.append(Stratum("line", dim=1, milnor_fiber_chi=rng.choice([-1, 0, 2]),
                              closure_class=cl, csm_closure=csm,
                              contained_in={"reg"}))
        if kind == "chain":
            pcl, pcsm = point_closure(ambient, 1)
            strata.append(Stratum("pt", dim=0, milnor_fiber_chi=rng.choice([-2, 0, 3]),
                                  closure_class=pcl, csm_closure=pcsm,
                                  contained_in={"reg", "line"}))
    return StratifiedHypersurface(name, ambient, lb, tuple(strata))


def random_scenario(rng: random.Random):
    ambient = ProjSpace(rng.choice([2, 3]))
    r = rng.choice([2, 2, 3])
    hyps = tuple(random_hypersurface(rng, ambient, f"X{i}") for i in range(r))
    return IntersectionScenario(ambient, hyps,
                                tuple(hypersurface_classes(h) for h in hyps))


# -- properties ----------------------------------------------------------------


def _ring_axioms(rng):
    ambient = rng.choice(AMBIENTS)
    a, b, c = (_random_class(rng, ambient) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ambient.one() == a
    assert (a + (-a)).is_zero()


def _ring_inverse(rng):
    ambient = rng.choice(AMBIENTS)
    a = _random_unit(rng, ambient)
    assert a * a.inverse() == ambient.one()


def _ring_grading(rng):
    ambient = rng.choice(AMBIENTS)
    a, b = _random_class(rng, ambient), _random_class(rng, ambient)
    prod = a * b
    for k in range(ambient.dimension + 1):
        acc = ambient.zero()
        for i in range(k + 1):
            acc = acc + a.component(i) * b.component(k - i)
        assert prod.component(k) == acc


def _ring_degree(rng):
    ambient = rng.choice(AMBIENTS)
    a, b = _random_class(rng, ambient), _random_class(rng, ambient)
    assert (a + b).degree() == a.degree() + b.degree()
    assert (a - a).degree() == 0


def _ring_roundtrip(rng):
    ambient = rng.choice(AMBIENTS)
    a = _random_class(rng, ambient)
    assert parse_class(ambient, a.render()) == a


def _bundle_whitney(rng):
    ambient = rng.choice(AMBIENTS)
    e, f = _random_split(rng, ambient), _random_split(rng, ambient)
    s = direct_sum(e, f)
    assert s.chern == e.chern * f.chern and s.rank == e.rank + f.rank


def _bundle_dual(rng):
    e = _random_split(rng, rng.choice(AMBIENTS))
    assert dual(dual(e)) == e


def _bundle_twist_oracle(rng):
    ambient = ProjSpace(rng.choice([2, 3]))
    degrees = [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
    b = rng.randint(-3, 3)
    e = trivial_bundle(ambient, 0)
    for d in degrees:
        e = direct_sum(e, line_bundle(ambient, d))
    oracle = trivial_bundle(ambient, 0)
    for d in degrees:
        oracle = direct_sum(oracle, line_bundle(ambient, d + b))
    twisted = tensor_line(e, line_bundle(ambient, b))
    assert twisted == oracle
    assert twisted.c(1) == e.c(1) + line_bundle(ambient, b).c1().scale(e.rank)


def _bundle_trivial_twist(rng):
    e = _random_split(rng, rng.choice(AMBIENTS))
    zero_twist = line_bundle(e.ambient, tuple(0 for _ in e.ambient.generators))
    assert tensor_line(e, zero_twist) == e


def _bundle_bezout(rng):
    n = rng.choice([2, 3])
    ambient = ProjSpace(n)
    degrees = [rng.randint(-4, 4) for _ in range(n)]
    e = trivial_bundle(ambient, 0)
    expected = 1
    for d in degrees:
        e = direct_sum(e, line_bundle(ambient, d))
        expected *= d
    assert top_chern(e).degree() == expected


def _classes_definition_identity(rng):
    hyp = random_hypersurface(rng, ProjSpace(rng.choice([2, 3])))
    assert hypersurface_classes(hyp).definition_identity_holds()


def _classes_smooth_vanishing(rng):
    ambient = ProjSpace(rng.choice([2, 3]))
    lb = line_bundle(ambient, rng.randint(1, 4))
    hyp = StratifiedHypersurface("smooth", ambient, lb, (
        Stratum("reg", dim=ambient.dimension - 1, milnor_fiber_chi=1,
                closure_class=lb.c1()),))
    assert milnor_pp(hyp).is_zero()
    assert aluffi_milnor(hyp, ambient.zero()).is_zero()


def _classes_isolated_degree(rng):
    ambient = ProjSpace(rng.choice([2, 3]))
    n = ambient.dimension
    lb = line_bundle(ambient, rng.randint(1, 3))
    k = rng.randint(1, 4)
    chif = rng.choice([-2, -1, 0, 2, 3])
    cl, csm = point_closure(ambient, k)
    hyp = StratifiedHypersurface("iso", ambient, lb, (
        Stratum("reg", dim=n - 1, milnor_fiber_chi=1, closure_class=lb.c1()),
        Stratum("pts", dim=0, milnor_fiber_chi=chif, closure_class=cl,
                csm_closure=csm, contained_in={"reg"}),))
    mu = (-1 if (n - 1) % 2 else 1) * (chif - 1)
    assert milnor_pp(hyp).degree() == k * mu


def _classes_aluffi_agreement(rng):
    # geometrically consistent (strata, Segre) pairs only: the two routes
    # consume different data and agree exactly when both describe the same
    # singular locus.  A_m points have Jacobian scheme a length-m complete
    # intersection (Segre m [pt]) with transverse fibre chi = 1 -+ m; the
    # two-planes double line is the validated positive-dimensional case.
    ambient = ProjSpace(rng.choice([2, 3]))
    n = ambient.dimension
    if rng.random() < 0.75 or n < 3:
        lb = line_bundle(ambient, rng.randint(1, 3))
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        cl, csm = point_closure(ambient, k)
        chif = 1 - m if n == 2 else 1 + m
        strata = (Stratum("reg", dim=n - 1, milnor_fiber_chi=1, closure_class=lb.c1()),
                  Stratum("pts", dim=0, milnor_fiber_chi=chif,
                          closure_class=cl, csm_closure=csm, contained_in={"reg"}))
        segre = segre_builtin(ambient, "points", k * m)
    else:
        lb = line_bundle(ambient, 2)
        cl, csm = linear_closure(ambient, 1)
        strata = (Stratum("reg", dim=n - 1, milnor_fiber_chi=1, closure_class=lb.c1()),
                  Stratum("line", dim=1, milnor_fiber_chi=0, closure_class=cl,
                          csm_closure=csm, contained_in={"reg"}))
        segre = segre_builtin(ambient, "linear", 1)
    hyp = StratifiedHypersurface("X", ambient, lb, strata)
    assert aluffi_milnor(hyp, mu_class(hyp, segre)) == milnor_pp(hyp)


def _classes_virtual_chi(rng):
    d = rng.randint(1, 5)
    v2 = virtual_class(ProjSpace(2), line_bundle(ProjSpace(2), d),
                       line_bundle(ProjSpace(2), d).c1())
    assert v2.degree() == 3 * d - d * d
    v3 = virtual_class(ProjSpace(3), line_bundle(ProjSpace(3), d),
                       line_bundle(ProjSpace(3), d).c1())
    assert v3.degree() == d ** 3 - 4 * d * d + 6 * d


def _le_roundtrip(rng):
    ambient = ProjSpace(3)
    h = ambient.gen(0)
    l = line_bundle(ambient, rng.randint(1, 4))
    m = (h * h).scale(rng.randint(-9, 9)) + (h ** 3).scale(rng.randint(-9, 9))
    le = milnor_to_le(m, l)
    assert le_to_milnor(le, l) == m
    assert milnor_to_le(le_to_milnor(le, l), l) == le


def _le_isolated(rng):
    ambient = ProjSpace(rng.choice([2, 3]))
    m = ambient.point_class().scale(rng.randint(-5, 5))
    assert milnor_to_le(m, line_bundle(ambient, 2)) == m


def _le_cor_equality(rng):
    sc = random_scenario(rng)
    via_le = tuple(
        class_triple(h.line_bundle, le_to_milnor(milnor_to_le(cb.milnor, h.line_bundle),
                                                 h.line_bundle), cb.csm)
        for h, cb in zip(sc.hyps, sc.classes))
    assert (milnor_cor11(IntersectionScenario(sc.ambient, sc.hyps, via_le))
            == milnor_cor11(sc))


def _intersect_agreement(rng):
    cv = cross_validate(random_scenario(rng))
    assert cv.agree, "\n".join(cv.render_lines())


def _intersect_smooth_vanishing(rng):
    ambient = ProjSpace(rng.choice([2, 3]))
    hyps = []
    for i in range(rng.choice([2, 3])):
        lb = line_bundle(ambient, rng.randint(1, 3))
        hyps.append(StratifiedHypersurface(f"X{i}", ambient, lb, (
            Stratum("reg", dim=ambient.dimension - 1, milnor_fiber_chi=1,
                    closure_class=lb.c1()),)))
    sc = IntersectionScenario(ambient, tuple(hyps),
                              tuple(hypersurface_classes(h) for h in hyps))
    cv = cross_validate(sc)
    assert cv.agree and cv.value.is_zero()


def _intersect_sign_coherence(rng):
    sc = random_scenario(rng)
    if sc.r != 2:
        return
    n = sc.ambient.dimension
    signs = {sel: sign for sel, sign, _ in selector_terms(sc)}
    assert signs[(0, 0)] == (-1) ** n
    assert signs[(1, 0)] == -1 and signs[(0, 1)] == -1


def _intersect_gamma_corruption_detected(rng):
    ambient = ProjSpace(3)
    lb = line_bundle(ambient, 2)
    lcl, lcsm = linear_closure(ambient, 1)
    corrupted = StratifiedHypersurface("bad", ambient, lb, (
        Stratum("reg", dim=2, milnor_fiber_chi=1, closure_class=lb.c1()),
        Stratum("line", dim=1, milnor_fiber_chi=-1, closure_class=lcl,
                csm_closure=lcsm, contained_in={"reg"}),))
    oracle = parse_class(ambient, "4*h^3 + 5*h^2 + 2*h")
    cb_bad = hypersurface_classes(corrupted, csm_override=oracle)
    plane_lb = line_bundle(ambient, 1)
    plane = StratifiedHypersurface("plane", ambient, plane_lb, (
        Stratum("reg", dim=2, milnor_fiber_chi=1, closure_class=plane_lb.c1()),))
    sc = IntersectionScenario(ambient, (corrupted, plane),
                              (cb_bad, hypersurface_classes(plane)))
    assert not cross_validate(sc).agree


class CorruptedBundle(ProjBundle):
    """Negative-control P(E^v) ring: the c1 term of its z-relation has the wrong sign."""

    @cached_property
    def _zeta_relations(self) -> dict[int, dict[tuple[int, ...], int]]:
        rels = dict(super()._zeta_relations)
        zpos = len(self.generators) - 1
        # the c1 term is the one carrying z^(r-1)
        rels[zpos] = {m: -c if m[zpos] == self.rank - 1 else c
                      for m, c in rels[zpos].items()}
        return rels


def corrupted_bundle_ring(base, e) -> CorruptedBundle:
    """Negative-control ring with one sign of the zeta-relation flipped."""
    return CorruptedBundle(base, e.rank, e.chern)


def _pb_random_ring(rng):
    base = ProjSpace(rng.choice([1, 2]))
    rank = rng.randint(1, 3)
    e = trivial_bundle(base, 0)
    for _ in range(rank):
        e = direct_sum(e, line_bundle(base, rng.randint(-2, 3)))
    return make_bundle_ring(base, e), e


def _pb_grothendieck(rng):
    ring, _ = _pb_random_ring(rng)
    assert grothendieck_residual(ring).is_zero()


def _pb_projection_formula(rng):
    ring, _ = _pb_random_ring(rng)
    base = ring.base
    alpha = _random_class(rng, base)
    beta = _random_class(rng, ring)
    assert projection_formula_check(ring, alpha, beta)
    assert flat_pullback_check(ring, alpha)


def _pb_tangent_identities(rng):
    ring, e = _pb_random_ring(rng)
    assert verify_tangent_identities(ring).ok
    if e.rank >= 2 and not e.c(1).is_zero():
        bad = corrupted_bundle_ring(ring.base, e)
        assert not verify_tangent_identities(bad).ok


def _pb_lemma_transfer(rng):
    base = ProjSpace(2)
    a, b = rng.randint(-1, 3), rng.randint(1, 3)
    g = direct_sum(line_bundle(base, a), line_bundle(base, b))
    if top_chern(g).is_zero():
        return
    virt_g = virtual_class(base, g, top_chern(g))
    h_b = line_bundle(base, b)
    virt_h = virtual_class(base, h_b, top_chern(h_b))
    assert lemma_transfer(line_bundle(base, a), virt_h) == virt_g


def _pb_general_r1(rng):
    base = ProjSpace(rng.choice([1, 2]))
    ring = make_bundle_ring(base, line_bundle(base, rng.randint(-2, 3)))
    synthetic = ring.pullback(_random_class(rng, base))
    assert milnor_general(GeneralCaseInput(ring, synthetic)) == ring.pushforward(synthetic)


SUITES: dict[str, list[tuple[str, Callable, int]]] = {
    "ring": [
        ("axioms", _ring_axioms, 150),
        ("inverse", _ring_inverse, 150),
        ("grading", _ring_grading, 100),
        ("degree-additive", _ring_degree, 100),
        ("render-roundtrip", _ring_roundtrip, 150),
    ],
    "bundle": [
        ("whitney", _bundle_whitney, 100),
        ("dual-involution", _bundle_dual, 100),
        ("twist-oracle", _bundle_twist_oracle, 100),
        ("trivial-twist", _bundle_trivial_twist, 100),
        ("bezout", _bundle_bezout, 100),
    ],
    "classes": [
        ("definition-identity", _classes_definition_identity, 100),
        ("smooth-vanishing", _classes_smooth_vanishing, 100),
        ("isolated-degree", _classes_isolated_degree, 100),
        ("aluffi-agreement", _classes_aluffi_agreement, 100),
        ("virtual-chi-closed-form", _classes_virtual_chi, 100),
    ],
    "lecycles": [
        ("roundtrip", _le_roundtrip, 120),
        ("isolated-support", _le_isolated, 100),
        ("intersection-equality", _le_cor_equality, 60),
    ],
    "intersect": [
        ("four-formula-agreement", _intersect_agreement, 200),
        ("smooth-vanishing", _intersect_smooth_vanishing, 100),
        ("sign-coherence", _intersect_sign_coherence, 100),
        ("corruption-detected", _intersect_gamma_corruption_detected, 5),
    ],
    "projbundle": [
        ("grothendieck-relation", _pb_grothendieck, 100),
        ("projection-formula", _pb_projection_formula, 100),
        ("tangent-identities", _pb_tangent_identities, 100),
        ("lemma-transfer", _pb_lemma_transfer, 100),
        ("general-case-r1", _pb_general_r1, 100),
    ],
}


@dataclass
class PropertyResult:
    suite: str
    name: str
    cases: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_suite(suite: str, seed: int) -> list[PropertyResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or all")
    results = []
    for name, prop, cases in SUITES[suite]:
        rng = random.Random((seed, suite, name).__repr__())
        failure = None
        done = 0
        try:
            for _ in range(cases):
                prop(rng)
                done += 1
        except AssertionError as exc:
            failure = f"case {done + 1}: {exc}"
        results.append(PropertyResult(suite, name, done, failure))
    return results


def run_verify(suite: str = "all", seed: int = 0) -> tuple[bool, str]:
    """Run the named suites; returns (all passed, printable summary)."""
    suites = sorted(SUITES) if suite == "all" else [suite]
    lines = []
    start = time.monotonic()
    all_ok = True
    for s in suites:
        for result in run_suite(s, seed):
            status = "PASS" if result.ok else f"FAIL ({result.failure})"
            lines.append(f"{result.suite}.{result.name}: {status} "
                         f"[{result.cases} cases]")
            all_ok = all_ok and result.ok
    elapsed = time.monotonic() - start
    lines.append(f"verify: {'PASS' if all_ok else 'FAIL'} "
                 f"(seed {seed}, {elapsed:.2f}s)")
    return all_ok, "\n".join(lines)
