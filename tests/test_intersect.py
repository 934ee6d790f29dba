"""Cross-validation of the four intersection Milnor-class formulas."""

import pytest

from milnor_classes.chow import ProjSpace, parse_class
from milnor_classes.bundles import direct_sum, line_bundle, top_chern
from milnor_classes.charclass import hypersurface_classes, virtual_class
from milnor_classes.intersect import (
    IntersectionScenario,
    cross_validate,
    milnor_cor11,
    milnor_cor12,
    milnor_pp_ais,
    milnor_pp_full,
    milnor_thm41,
    selector_terms,
)
from milnor_classes.strata import (
    StratifiedHypersurface,
    Stratum,
    linear_closure,
    point_closure,
)
from test_verify_suites import run_property

P2 = ProjSpace(2)
P3 = ProjSpace(3)


def make_hyp(name, ambient, degree, singular=()):
    lb = line_bundle(ambient, degree)
    strata = [Stratum("reg", dim=ambient.dimension - 1, milnor_fiber_chi=1,
                      closure_class=lb.c1())]
    for sname, dim, chif, kind, arg, above in singular:
        cl, csm = (point_closure(ambient, arg) if kind == "points"
                   else linear_closure(ambient, arg))
        strata.append(Stratum(sname, dim=dim, milnor_fiber_chi=chif,
                              closure_class=cl, csm_closure=csm,
                              contained_in=frozenset(above)))
    return StratifiedHypersurface(name, ambient, lb, tuple(strata))


def scenario(*hyps):
    ambient = hyps[0].ambient
    return IntersectionScenario(ambient, tuple(hyps),
                                tuple(hypersurface_classes(h) for h in hyps))


TWO_PLANES = make_hyp("two_planes", P3, 2,
                      [("line", 1, 0, "linear", 1, {"reg"})])
PLANE = make_hyp("plane", P3, 1)
QUADRIC_CONE = make_hyp("quadric_cone", P3, 2,
                        [("vertex", 0, 2, "points", 1, {"reg"})])


class TestFixture:
    """two-planes cap generic plane: every route must give the point class."""

    def test_all_formulas_h3(self):
        sc = scenario(TWO_PLANES, PLANE)
        pt = P3.point_class()
        assert milnor_thm41(sc) == pt
        assert milnor_cor11(sc) == pt
        assert milnor_cor12(sc) == pt
        assert milnor_pp_ais(sc) == pt
        assert milnor_pp_full(sc) == pt

    def test_direct_codim2_oracle(self):
        # the intersection is a nodal conic; compute its Milnor class from
        # the definition with independently derived classes
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        virt = virtual_class(P3, e, top_chern(e))
        assert virt == parse_class(P3, "2*h^3 + 2*h^2")
        csm = parse_class(P3, "3*h^3 + 2*h^2")  # two lines: chi = 3
        direct = (virt - csm).scale(-1)  # (-1)^(dim M - codim) = (-1)^1
        assert direct == P3.point_class()
        assert milnor_thm41(scenario(TWO_PLANES, PLANE)) == direct

    def test_support_is_singular_locus(self):
        sc = scenario(TWO_PLANES, PLANE)
        result = milnor_thm41(sc)
        assert set(result.coeffs) <= {(3,)}  # point classes only

    def test_vertex_avoiding_plane(self):
        sc = scenario(QUADRIC_CONE, PLANE)
        cv = cross_validate(sc)
        assert cv.agree
        assert cv.value.is_zero()

    def test_smooth_scenarios_vanish(self):
        sc = scenario(PLANE, make_hyp("quadric", P3, 2))
        cv = cross_validate(sc)
        assert cv.agree and cv.value.is_zero()
        sc3 = scenario(PLANE, PLANE, make_hyp("cubic", P3, 3))
        cv3 = cross_validate(sc3)
        assert cv3.agree and cv3.value.is_zero()

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError, match="r >= 2"):
            milnor_thm41(scenario(TWO_PLANES))
        with pytest.raises(ValueError, match="r >= 2"):
            milnor_cor12(scenario(PLANE))


class TestSignCoherence:
    def test_r2_expansion_term_by_term(self):
        """Selector enumeration must reproduce the printed r = 2 expansion.

        With the global prefactor folded in, the three terms carry signs
        (-1)^n for (M1, M2) and (-1)^(d_i) = -1 for the mixed terms.
        """
        sc = scenario(TWO_PLANES, PLANE)
        n = P3.dimension
        by_selector = {sel: sign for sel, sign, _ in selector_terms(sc)}
        assert by_selector[(0, 0)] == (-1) ** n
        assert by_selector[(1, 0)] == -1
        assert by_selector[(0, 1)] == -1
        assert (1, 1) not in by_selector

    def test_pp_exponent_agreement(self):
        # for line bundles both exponent conventions coincide: (n-1) sum(eps)
        # has the parity of sum (n - d_i) eps_i with every d_i = 1
        n = 3
        for eps in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            assert ((n - 1) * sum(eps)) % 2 == sum((n - 1) * e for e in eps) % 2


class TestNonzeroTripleIntersection:
    """r = 3 with two singular factors, in P^4 so the value survives.

    In P^3 every r = 3 scenario truncates to zero, so this is the smallest
    configuration that exercises the selection table at r = 3 nontrivially.
    """

    def test_two_singular_factors_agree_nonzero(self):
        p4 = ProjSpace(4)

        def pair_of_hyperplanes(name):
            lb = line_bundle(p4, 2)
            cl, csm = linear_closure(p4, 2)
            return StratifiedHypersurface(name, p4, lb, (
                Stratum("reg", dim=3, milnor_fiber_chi=1, closure_class=lb.c1()),
                Stratum("plane", dim=2, milnor_fiber_chi=0, closure_class=cl,
                        csm_closure=csm, contained_in={"reg"}),
            ))

        sc = scenario(pair_of_hyperplanes("A"), pair_of_hyperplanes("B"),
                      make_hyp("C", p4, 1))
        # frozen: M(pair of hyperplanes in P^4) = h^2 + h^3 + h^4, checked
        # against the definition route with csm = 2 csm(P^3) - csm(P^2)
        assert sc.classes[0].milnor == parse_class(p4, "h^4 + h^3 + h^2")
        csm_oracle = parse_class(p4, "5*h^4 + 9*h^3 + 7*h^2 + 2*h")
        assert sc.classes[0].csm == csm_oracle
        cv = cross_validate(sc)
        assert cv.agree
        assert cv.value == parse_class(p4, "4*h^4")


class TestRandomizedAgreement:
    def test_four_formula_agreement_200(self):
        run_property("intersect", "four-formula-agreement")

    def test_report_rendering(self):
        cv = cross_validate(scenario(TWO_PLANES, PLANE))
        lines = cv.render_lines()
        assert lines[-1] == "formulas-agree: yes"
        assert any(line.startswith("thm41: h^3") for line in lines)


class TestNegativeControl:
    def test_gamma_corruption_detected(self):
        """A gamma off by one must surface as a cross-formula disagreement.

        The corrupted strata feed the weighted-strata routes while the
        oracle CSM class feeds the virtual-difference route; they cannot
        both be right.
        """
        lb = line_bundle(P3, 2)
        lcl, lcsm = linear_closure(P3, 1)
        corrupted = StratifiedHypersurface("two_planes_bad", P3, lb, (
            Stratum("reg", dim=2, milnor_fiber_chi=1, closure_class=lb.c1()),
            # chi(F) = -1 makes mu = -2, one off from the true -1
            Stratum("line", dim=1, milnor_fiber_chi=-1, closure_class=lcl,
                    csm_closure=lcsm, contained_in={"reg"}),
        ))
        csm_oracle = parse_class(P3, "4*h^3 + 5*h^2 + 2*h")
        cb_bad = hypersurface_classes(corrupted, csm_override=csm_oracle)
        assert not cb_bad.definition_identity_holds()
        sc = IntersectionScenario(P3, (corrupted, PLANE),
                                  (cb_bad, hypersurface_classes(PLANE)))
        cv = cross_validate(sc)
        assert not cv.agree
        rendered = "\n".join(cv.render_lines())
        assert "formulas-agree: no" in rendered

    def test_clean_fixture_passes(self):
        cb = hypersurface_classes(TWO_PLANES,
                                  csm_override=parse_class(P3, "4*h^3 + 5*h^2 + 2*h"))
        assert cb.definition_identity_holds()
        sc = IntersectionScenario(P3, (TWO_PLANES, PLANE),
                                  (cb, hypersurface_classes(PLANE)))
        assert cross_validate(sc).agree
