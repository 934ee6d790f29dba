"""Le-cycle / Milnor-class conversion: a line twist by c1(L) and its inverse by -c1(L)."""

import random
from math import comb

import pytest

from milnor_classes.chow import ProjSpace
from milnor_classes.bundles import line_bundle
from milnor_classes.charclass import hypersurface_classes
from milnor_classes.lecycles import (
    LeCycles,
    le_to_milnor,
    milnor_from_le_intersection,
    milnor_pieces,
    milnor_to_le,
)
from milnor_classes.strata import StratifiedHypersurface, Stratum, linear_closure
from test_verify_suites import run_property

P2 = ProjSpace(2)
P3 = ProjSpace(3)


def naive_conversion(le, l, k):
    """Independent evaluation of the k-th conversion sum, term by term."""
    out = le.ambient.zero()
    for ell in range(le.ambient.dimension + 1):
        lam = le[ell + k]
        if lam.is_zero():
            continue
        term = lam
        for _ in range(ell):
            term = term * l.c1()
        out = out + term.scale((-1) ** (k + ell) * comb(ell + k, k))
    return out


class TestLeToMilnor:
    def test_isolated_nodal(self):
        le = LeCycles(P2, {0: P2.point_class()})
        m = le_to_milnor(le, line_bundle(P2, 3))
        assert m == {0: P2.point_class()}

    def test_isolated_cusp(self):
        le = LeCycles(P2, {0: P2.point_class().scale(2)})
        m = le_to_milnor(le, line_bundle(P2, 3))
        assert m == {0: P2.point_class().scale(2)}

    def test_two_grades_frozen(self):
        # Lambda_1 = a h^2, Lambda_0 = b h^3 in P^3 with L = O(d):
        # M_1 = -a h^2 and M_0 = (b - a d) h^3, frozen from the literal sum
        a, b, d = 3, 5, 2
        h = P3.gen(0)
        le = LeCycles(P3, {1: (h * h).scale(a), 0: (h ** 3).scale(b)})
        l = line_bundle(P3, d)
        m = le_to_milnor(le, l)
        assert m[1] == -(h * h).scale(a)
        assert m[0] == (h ** 3).scale(b - a * d)
        for k in (0, 1):
            assert m.get(k, P3.zero()) == naive_conversion(le, l, k)

    def test_matches_naive_oracle_randomized(self):
        rng = random.Random(7)
        h = P3.gen(0)
        l = line_bundle(P3, 2)
        for _ in range(50):
            le = LeCycles(P3, {
                0: (h ** 3).scale(rng.randint(-5, 5)),
                1: (h ** 2).scale(rng.randint(-5, 5)),
            })
            m = le_to_milnor(le, l)
            for k in range(3):
                assert m.get(k, P3.zero()) == naive_conversion(le, l, k)


class TestRoundTrip:
    def test_nodal_roundtrip(self):
        m = {0: P2.point_class()}
        le = milnor_to_le(m, line_bundle(P2, 3))
        assert le.classes == {0: P2.point_class()}
        assert le_to_milnor(le, line_bundle(P2, 3)) == m

    def test_zero(self):
        le = milnor_to_le({}, line_bundle(P3, 2), ambient=P3)
        assert le.classes == {}

    def test_two_planes_effective_le(self):
        # M(two planes) = -h^2 converts to Lambda_1 = +[line], Lambda_0 = 2[pt]
        h = P3.gen(0)
        le = milnor_to_le({1: -(h * h)}, line_bundle(P3, 2), ambient=P3)
        assert le[1] == h * h
        assert le[0] == (h ** 3).scale(2)

    def test_random_roundtrip(self):
        run_property("lecycles", "roundtrip")

    def test_isolated_support_property(self):
        # dim Sing = 0: Lambda_0 = M_0 and nothing higher
        m = {0: P3.point_class().scale(4)}
        le = milnor_to_le(m, line_bundle(P3, 2), ambient=P3)
        assert le.classes == m

    def test_rejects_inhomogeneous(self):
        h = P3.gen(0)
        with pytest.raises(ValueError, match="homogeneous"):
            milnor_to_le({1: h * h + h ** 3}, line_bundle(P3, 2), ambient=P3)
        with pytest.raises(ValueError, match="homogeneous"):
            LeCycles(P3, {0: h * h})


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


class TestIntersectionFromLe:
    def test_two_planes_cap_plane(self):
        from milnor_classes.intersect import IntersectionScenario, milnor_cor11

        hyps = (two_planes_hyp(), plane_hyp())
        cbs = tuple(hypersurface_classes(h) for h in hyps)
        les = [milnor_to_le(milnor_pieces(cb.milnor), h.line_bundle, ambient=P3)
               for h, cb in zip(hyps, cbs)]
        result = milnor_from_le_intersection(
            list(zip(les, (h.line_bundle for h in hyps))),
            [cb.virt for cb in cbs], [cb.csm for cb in cbs])
        assert result == P3.point_class()
        sc = IntersectionScenario(P3, hyps, cbs)
        assert result == milnor_cor11(sc)

    def test_all_smooth(self):
        hyps = (plane_hyp(), plane_hyp())
        cbs = tuple(hypersurface_classes(h) for h in hyps)
        les = [LeCycles(P3, {}) for _ in hyps]
        result = milnor_from_le_intersection(
            list(zip(les, (h.line_bundle for h in hyps))),
            [cb.virt for cb in cbs], [cb.csm for cb in cbs])
        assert result.is_zero()

    def test_single_hypersurface_degenerates(self):
        hyp = two_planes_hyp()
        cb = hypersurface_classes(hyp)
        le = milnor_to_le(milnor_pieces(cb.milnor), hyp.line_bundle, ambient=P3)
        result = milnor_from_le_intersection(
            [(le, hyp.line_bundle)], [cb.virt], [cb.csm])
        assert result == cb.milnor

    def test_equality_with_cor11_randomized(self):
        run_property("lecycles", "intersection-equality")
