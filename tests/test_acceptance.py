"""Acceptance suite: one test per criterion, exact-integer tolerances.

Every check is exact (integer Chow-ring equality); runtime-bounded checks
time themselves.  Each test prints one PASS line when its criterion holds
(visible with pytest -s or in the captured output of a failing run).
"""

import time

from milnor_classes.chow import ProjSpace, parse_class
from milnor_classes.bundles import direct_sum, line_bundle, top_chern
from milnor_classes.charclass import (
    aluffi_milnor,
    class_triple,
    milnor_pp,
    mu_class,
    segre_builtin,
    virtual_class,
)
from milnor_classes.examples import fixture_scenario, run_example
from milnor_classes.intersect import IntersectionScenario, milnor_cor11
from milnor_classes.lecycles import le_to_milnor, milnor_to_le
from milnor_classes.projbundle import (
    GeneralCaseInput,
    grothendieck_residual,
    lemma_transfer,
    make_bundle_ring,
    milnor_general,
    verify_tangent_identities,
)
from milnor_classes.scenario import run_compute
from milnor_classes.verify import corrupted_bundle_ring, run_suite
from test_verify_suites import run_property

P2 = ProjSpace(2)
P3 = ProjSpace(3)


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def _hyp(name):
    """Class triple of the single hypersurface of a builtin fixture."""
    sc = fixture_scenario(name)
    from milnor_classes.scenario import _hyp_class_triple
    return sc.hypersurfaces[0], _hyp_class_triple(sc.hypersurfaces[0])


def test_nodal_cubic_p2():
    spec, cb = _hyp("nodal_cubic_p2")
    assert cb.milnor == P2.point_class()
    assert cb.milnor.degree() == 1
    assert cb.csm.degree() == 1
    assert cb.virt.degree() == 0
    mu = mu_class(spec.hyp, segre_builtin(P2, "points", 1))
    assert aluffi_milnor(spec.hyp, mu) == cb.milnor
    _passed("nodal-cubic-p2")


def test_cuspidal_cubic_p2():
    spec, cb = _hyp("cuspidal_cubic_p2")
    assert cb.milnor == P2.point_class().scale(2)
    assert cb.csm.degree() == 2
    _passed("cuspidal-cubic-p2")


def test_quadric_cone_p3():
    spec, cb = _hyp("quadric_cone_p3")
    assert cb.milnor == P3.point_class()
    assert cb.csm.degree() == 3
    assert cb.virt.degree() == 4
    _passed("quadric-cone-p3")


def test_two_planes_p3():
    spec, cb = _hyp("two_planes_p3")
    h = P3.gen(0)
    assert milnor_pp(spec.hyp) == -(h * h)
    # independently by the definition with the stated classes: the sign is
    # (-1)^(dim M - 1) = +1 here
    virt_expected = parse_class(P3, "4*h^3 + 4*h^2 + 2*h")
    csm_expected = parse_class(P3, "4*h^3 + 5*h^2 + 2*h")
    assert cb.virt == virt_expected
    assert cb.csm == csm_expected
    assert virt_expected - csm_expected == -(h * h)
    _passed("two-planes-p3")


def test_intersection_two_planes_cap_plane():
    report = run_compute(fixture_scenario("two_planes_cap_plane_p3"))
    inter = next(s for s in report.sections if s.kind == "intersection")
    for formula in ("thm41", "cor11", "cor12", "pp_ais", "pp_full"):
        assert inter.results[formula] == "h^3"
    # direct codimension-2 computation of the nodal conic
    e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
    virt = virtual_class(P3, e, top_chern(e))
    assert virt == parse_class(P3, "2*h^3 + 2*h^2")
    csm = parse_class(P3, "3*h^3 + 2*h^2")
    assert (virt - csm).scale(-1) == P3.point_class()
    _passed("two-planes-cap-plane-p3")


def test_quadric_cone_cap_vertex_avoiding_plane():
    report = run_compute(fixture_scenario("quadric_cone_cap_plane_p3"))
    inter = next(s for s in report.sections if s.kind == "intersection")
    for formula in ("thm41", "cor11", "cor12", "pp_ais", "pp_full"):
        assert inter.results[formula] == "0"
    _passed("quadric-cone-cap-plane-p3")


def test_four_formula_agreement_randomized():
    start = time.monotonic()
    run_property("intersect", "four-formula-agreement")  # 200 random scenarios
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"agreement suite took {elapsed:.1f}s"
    _passed(f"four-formula-agreement-200 ({elapsed:.2f}s)")


def test_le_round_trip_and_intersection_equality():
    run_property("lecycles", "roundtrip")
    # cor11 on Le-derived class triples equals cor11 on the strata triples
    # on the intersection fixtures
    for name in ("two_planes_cap_plane_p3", "quadric_cone_cap_plane_p3"):
        sc_file = fixture_scenario(name)
        from milnor_classes.scenario import _hyp_class_triple
        triples = [_hyp_class_triple(s) for s in sc_file.hypersurfaces]
        hyps = tuple(s.hyp for s in sc_file.hypersurfaces)
        via_le = tuple(
            class_triple(h_.line_bundle,
                         le_to_milnor(milnor_to_le(cb.milnor, h_.line_bundle),
                                      h_.line_bundle), cb.csm)
            for h_, cb in zip(hyps, triples))
        sc = IntersectionScenario(P3, hyps, tuple(triples))
        assert milnor_cor11(IntersectionScenario(P3, hyps, via_le)) == milnor_cor11(sc)
    _passed("le-round-trip-and-corollary-equality")


def test_projective_bundle_identities():
    p1 = ProjSpace(1)
    # Grothendieck vanishing and the tangent identities on fixed bundles
    from milnor_classes.bundles import trivial_bundle
    for degrees, base in [([1, 2], p1), ([0, 0], p1), ([-1, 3], p1),
                          ([1, 1], P2), ([2, -1, 1], P2)]:
        e = trivial_bundle(base, 0)
        for d in degrees:
            e = direct_sum(e, line_bundle(base, d))
        ring = make_bundle_ring(base, e)
        assert grothendieck_residual(ring).is_zero()
        assert verify_tangent_identities(ring).ok
    # projection formula and flat pullback on random bundles and classes
    run_property("projbundle", "projection-formula")
    # Lemma-2 split check on a grid of twists
    for a, b in [(0, 1), (1, 1), (1, 2), (-1, 2), (3, 2), (2, 2)]:
        g = direct_sum(line_bundle(P2, a), line_bundle(P2, b))
        if top_chern(g).is_zero():
            continue
        virt_g = virtual_class(P2, g, top_chern(g))
        hb = line_bundle(P2, b)
        virt_h = virtual_class(P2, hb, top_chern(hb))
        assert lemma_transfer(line_bundle(P2, a), virt_h) == virt_g
    # r = 1 degeneration returns its input
    ring1 = make_bundle_ring(P2, line_bundle(P2, 3))
    synthetic = ring1.pullback(P2.gen(0) + P2.point_class().scale(4))
    assert milnor_general(GeneralCaseInput(ring1, synthetic)) == \
        P2.gen(0) + P2.point_class().scale(4)
    _passed("projective-bundle-identities")


def test_ring_and_bundle_axiom_suites():
    for suite in ("ring", "bundle"):
        for result in run_suite(suite, seed=7):
            assert result.ok, f"{suite}.{result.name}: {result.failure}"
            assert result.cases >= 100
    _passed("ring-bundle-axiom-suites")


def test_negative_controls():
    # gamma-corrupted fixture reports FAIL
    report = run_example("gamma_corrupted_control_p3")
    assert not report.ok
    assert "formulas-agree: no" in report.to_text()
    # sign-flipped bundle relation fails the tangent identities
    p1 = ProjSpace(1)
    e = direct_sum(line_bundle(p1, 1), line_bundle(p1, 2))
    assert verify_tangent_identities(make_bundle_ring(p1, e)).ok
    assert not verify_tangent_identities(corrupted_bundle_ring(p1, e)).ok
    _passed("negative-controls")
