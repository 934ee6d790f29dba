"""Le-cycle / Milnor-class conversion: a line twist by c1(L) and its inverse by -c1(L).

Both directions take and return total classes; Lambda_k is the
codimension-(n - k) piece of the total Le class.
"""

import random
from math import comb

import pytest

from milnor_classes.chow import ProjSpace
from milnor_classes.bundles import line_bundle
from milnor_classes.charclass import class_triple, hypersurface_classes
from milnor_classes.intersect import IntersectionScenario, milnor_cor11
from milnor_classes.lecycles import le_to_milnor, milnor_to_le
from milnor_classes.scenario import ScenarioError, parse_scenario
from milnor_classes.strata import StratifiedHypersurface, Stratum, linear_closure
from test_verify_suites import run_property

P2 = ProjSpace(2)
P3 = ProjSpace(3)


def naive_conversion(lam, l, k):
    """Independent evaluation of the k-th conversion sum, term by term."""
    n = lam.ambient.dimension
    out = lam.ambient.zero()
    for ell in range(n - k + 1):
        piece = lam.component(n - ell - k)  # Lambda_(ell + k)
        if piece.is_zero():
            continue
        term = piece
        for _ in range(ell):
            term = term * l.c1()
        out = out + term.scale((-1) ** (k + ell) * comb(ell + k, k))
    return out


class TestLeToMilnor:
    def test_isolated_nodal(self):
        m = le_to_milnor(P2.point_class(), line_bundle(P2, 3))
        assert m == P2.point_class()

    def test_isolated_cusp(self):
        m = le_to_milnor(P2.point_class().scale(2), line_bundle(P2, 3))
        assert m == P2.point_class().scale(2)

    def test_two_grades_frozen(self):
        # Lambda_1 = a h^2, Lambda_0 = b h^3 in P^3 with L = O(d):
        # M_1 = -a h^2 and M_0 = (b - a d) h^3, frozen from the literal sum
        a, b, d = 3, 5, 2
        h = P3.gen(0)
        lam = (h * h).scale(a) + (h ** 3).scale(b)
        l = line_bundle(P3, d)
        m = le_to_milnor(lam, l)
        assert m == -(h * h).scale(a) + (h ** 3).scale(b - a * d)
        for k in (0, 1):
            assert m.component(3 - k) == naive_conversion(lam, l, k)

    def test_matches_naive_oracle_randomized(self):
        rng = random.Random(7)
        h = P3.gen(0)
        l = line_bundle(P3, 2)
        for _ in range(50):
            lam = (h ** 3).scale(rng.randint(-5, 5)) + (h ** 2).scale(rng.randint(-5, 5))
            m = le_to_milnor(lam, l)
            for k in range(3):
                assert m.component(3 - k) == naive_conversion(lam, l, k)


class TestRoundTrip:
    def test_nodal_roundtrip(self):
        m = P2.point_class()
        le = milnor_to_le(m, line_bundle(P2, 3))
        assert le == P2.point_class()
        assert le_to_milnor(le, line_bundle(P2, 3)) == m

    def test_zero(self):
        assert milnor_to_le(P3.zero(), line_bundle(P3, 2)).is_zero()

    def test_two_planes_effective_le(self):
        # M(two planes) = -h^2 converts to Lambda_1 = +[line], Lambda_0 = 2[pt]
        h = P3.gen(0)
        le = milnor_to_le(-(h * h), line_bundle(P3, 2))
        assert le.component(2) == h * h
        assert le.component(3) == (h ** 3).scale(2)

    def test_random_roundtrip(self):
        run_property("lecycles", "roundtrip")

    def test_isolated_support_property(self):
        # dim Sing = 0: Lambda_0 = M_0 and nothing higher
        m = P3.point_class().scale(4)
        assert milnor_to_le(m, line_bundle(P3, 2)) == m

    def test_rejects_inhomogeneous(self):
        # the Le input check lives where Le data enters: the scenario parser
        for k, text, codim in (("1", "h^2 + h^3", 2), ("0", "h^2", 3)):
            data = {"ambient": {"kind": "proj", "n": 3},
                    "hypersurfaces": [{"name": "X", "multidegree": [2],
                                       "le_cycles": {k: text}}]}
            with pytest.raises(ScenarioError,
                               match=f"homogeneous of codimension {codim}") as err:
                parse_scenario(data)
            assert err.value.fieldpath == f"hypersurfaces[0].le_cycles[{k}]"


def two_planes_hyp():
    lcl, lcsm = linear_closure(P3, 1)
    lb = line_bundle(P3, 2)
    return StratifiedHypersurface("two_planes", P3, lb, (
        Stratum("reg", dim=2, milnor_fiber_chi=1, closure_class=lb.c1()),
        Stratum("line", dim=1, milnor_fiber_chi=0, closure_class=lcl,
                csm_closure=lcsm, contained_in={"reg"}),
    ))


def plane_hyp():
    lb = line_bundle(P3, 1)
    return StratifiedHypersurface("plane", P3, lb, (
        Stratum("reg", dim=2, milnor_fiber_chi=1, closure_class=lb.c1()),
    ))


def le_triple(hyp, le, csm=None):
    """Class triple of a hypersurface whose Milnor class comes from Le data."""
    return class_triple(hyp.line_bundle, le_to_milnor(le, hyp.line_bundle), csm)


class TestIntersectionFromLe:
    def test_two_planes_cap_plane(self):
        hyps = (two_planes_hyp(), plane_hyp())
        cbs = tuple(hypersurface_classes(h) for h in hyps)
        via_le = tuple(le_triple(h, milnor_to_le(cb.milnor, h.line_bundle), cb.csm)
                       for h, cb in zip(hyps, cbs))
        result = milnor_cor11(IntersectionScenario(P3, via_le))
        assert result == P3.point_class()
        assert result == milnor_cor11(IntersectionScenario(P3, cbs))

    def test_all_smooth(self):
        hyps = (plane_hyp(), plane_hyp())
        via_le = tuple(le_triple(h, P3.zero()) for h in hyps)
        assert milnor_cor11(IntersectionScenario(P3, via_le)).is_zero()

    def test_single_hypersurface_degenerates(self):
        # one hypersurface: the Le-derived triple is the strata triple
        hyp = two_planes_hyp()
        cb = hypersurface_classes(hyp)
        assert le_triple(hyp, milnor_to_le(cb.milnor, hyp.line_bundle)) == cb

    def test_equality_with_cor11_randomized(self):
        run_property("lecycles", "intersection-equality")
