"""Bundle calculus: Whitney formula, duals, twists, tangent bundles, Chern roots."""

import pytest

from milnor_classes.chow import AmbientMismatchError, MultiProj, ProjBundle, ProjSpace
from milnor_classes.bundles import (
    BundleClass,
    chern_roots,
    direct_sum,
    dual,
    line_bundle,
    tangent_bundle,
    tensor_line,
    times_chern,
    top_chern,
    trivial_bundle,
)
from milnor_classes.projbundle import make_bundle_ring, taut_sub_chern
from test_graded_kernels import RINGS
from test_verify_suites import run_property

P2 = ProjSpace(2)
P3 = ProjSpace(3)


class TestConstructors:
    def test_line_bundle_p2(self):
        l = line_bundle(P2, 3)
        assert l.rank == 1
        assert l.chern == P2.one() + P2.gen(0).scale(3)

    def test_line_bundle_multidegree(self):
        amb = MultiProj((1, 1))
        l = line_bundle(amb, (1, 2))
        assert l.chern == amb.one() + amb.gen(0) + amb.gen(1).scale(2)

    def test_trivial(self):
        assert line_bundle(P2, 0).chern == P2.one()

    def test_rank_bound_validated(self):
        with pytest.raises(ValueError):
            BundleClass(P2, 1, (P2.one() + P2.gen(0)) ** 2)

    def test_degree_zero_part_must_be_one(self):
        h = P2.gen(0)
        for chern in (P2.from_int(2) + h, h, P2.zero(), -P2.one()):
            with pytest.raises(ValueError, match="must start with 1"):
                BundleClass(P2, 1, chern)

    def test_part_above_rank_names_lowest_codimension(self):
        h = P3.gen(0)
        with pytest.raises(ValueError, match=r"codimension 2 > rank 1$"):
            BundleClass(P3, 1, P3.one() + h + h ** 2 + (h ** 3).scale(5))
        with pytest.raises(ValueError, match=r"codimension 3 > rank 1$"):
            BundleClass(P3, 1, P3.one() + h + h ** 3)
        with pytest.raises(ValueError, match=r"codimension 3 > rank 2$"):
            BundleClass(P3, 2, P3.one() + h ** 3)
        # a part up to the rank is fine, and c(k) reads it back
        e = BundleClass(P3, 2, P3.one() + h.scale(3) + (h ** 2).scale(2))
        assert [e.c(k) for k in range(5)] == [P3.one(), h.scale(3), (h ** 2).scale(2),
                                              P3.zero(), P3.zero()]


class TestDirectSum:
    def test_example_p3(self):
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        h = P3.gen(0)
        assert e.rank == 2
        assert e.chern == P3.one() + h.scale(3) + (h * h).scale(2)

    def test_trivial_summand(self):
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        e2 = direct_sum(e, trivial_bundle(P3))
        assert e2.rank == e.rank + 1
        assert e2.chern == e.chern

    def test_tangent_square(self):
        t2 = direct_sum(tangent_bundle(P2), tangent_bundle(P2))
        h = P2.gen(0)
        assert t2.rank == 4
        assert t2.chern == P2.one() + h.scale(6) + (h * h).scale(15)


class TestDual:
    def test_line(self):
        assert dual(line_bundle(P2, 3)).chern == P2.one() - P2.gen(0).scale(3)

    def test_rank2_signs(self):
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        d = dual(e)
        assert d.c(1) == -e.c(1)
        assert d.c(2) == e.c(2)

    def test_involution(self):
        run_property("bundle", "dual-involution")


class TestTensorLine:
    def test_line_times_line(self):
        t = tensor_line(line_bundle(P2, 2), line_bundle(P2, 1))
        assert t.chern == line_bundle(P2, 3).chern

    def test_rank2_formula(self):
        # frozen from the two-root splitting computation:
        # c1 -> c1 + 2 ell, c2 -> c2 + c1 ell + ell^2
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        l = line_bundle(P3, 4)
        t = tensor_line(e, l)
        ell = l.c1()
        assert t.c(1) == e.c(1) + ell.scale(2)
        assert t.c(2) == e.c(2) + e.c(1) * ell + ell * ell

    def test_trivial_twist(self):
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        assert tensor_line(e, line_bundle(P3, 0)) == e

    def test_rejects_higher_rank_twist(self):
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        with pytest.raises(ValueError):
            tensor_line(line_bundle(P3, 1), e)

    def test_against_splitting_oracle(self):
        run_property("bundle", "twist-oracle")

    def test_c1_shift(self):
        run_property("bundle", "twist-oracle")


class TestTangent:
    def test_p2(self):
        t = tangent_bundle(P2)
        h = P2.gen(0)
        assert t.rank == 2
        assert t.chern == P2.one() + h.scale(3) + (h * h).scale(3)

    def test_p3(self):
        t = tangent_bundle(P3)
        h = P3.gen(0)
        assert t.chern == P3.one() + h.scale(4) + (h * h).scale(6) + (h ** 3).scale(4)

    def test_p1xp1(self):
        amb = MultiProj((1, 1))
        t = tangent_bundle(amb)
        h1, h2 = amb.gen(0), amb.gen(1)
        assert t.chern == amb.one() + h1.scale(2) + h2.scale(2) + (h1 * h2).scale(4)

    def test_euler_characteristic_degree(self):
        # degree of c(TM) is chi(M)
        assert tangent_bundle(P2).chern.degree() == 3
        assert tangent_bundle(P3).chern.degree() == 4
        assert tangent_bundle(MultiProj((1, 1))).chern.degree() == 4

    def test_projbundle(self):
        from milnor_classes.projbundle import make_bundle_ring
        ring = make_bundle_ring(P2, direct_sum(line_bundle(P2, 1), line_bundle(P2, 2)))
        t = tangent_bundle(ring)
        assert t.rank == ring.dimension == 3
        assert t.chern == ring.tangent_chern
        assert t.chern.degree() == 6  # a P^1-bundle over P^2: chi = 2 * 3


class TestTopChern:
    def test_line(self):
        assert top_chern(line_bundle(P3, 2)) == P3.gen(0).scale(2)

    def test_rank2(self):
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        h = P3.gen(0)
        assert top_chern(e) == (h * h).scale(2)

    def test_rank0(self):
        assert top_chern(trivial_bundle(P3, 0)) == P3.one()

    def test_bezout(self):
        run_property("bundle", "bezout")


class TestWhitneyProperty:
    def test_whitney(self):
        run_property("bundle", "whitney")

    def test_bundle_power(self):
        # E^(+ copies) is E's roots with every multiplicity times copies
        t = tangent_bundle(P3)
        for copies in (0, 1, 2, 3):
            roots = chern_roots(t, copies)
            assert sum(m for _, m in roots) == t.rank * copies
            power = BundleClass(P3, t.rank * copies, times_chern(P3.one(), roots), roots)
            assert power.chern == t.chern ** copies
        assert direct_sum(t, t).chern == t.chern * t.chern
        assert direct_sum(t, t).roots == t.roots + t.roots
        empty = BundleClass(P3, 0, times_chern(P3.one(), chern_roots(t, 0)), chern_roots(t, 0))
        assert empty == trivial_bundle(P3, 0)
        assert all(m == 0 for _, m in empty.roots)


def roots_product(roots, ambient):
    return times_chern(ambient.one(), roots)


def assert_roots_give_chern(e):
    assert e.roots is not None
    assert sum(m for _, m in e.roots) == e.rank
    assert roots_product(e.roots, e.ambient) == e.chern


class TestChernRoots:
    """Every root-filling constructor: prod (1 + ell)^m over the roots is c(E)."""

    def test_tangent_p3_roots(self):
        h = P3.gen(0)
        assert tangent_bundle(P3).roots == ((h, 4), (P3.zero(), -1))

    def test_line_and_trivial(self):
        amb = MultiProj((2, 1))
        for degs in ((1, 0), (-2, 3), (0, 0)):
            assert_roots_give_chern(line_bundle(amb, degs))
        for rank in (0, 1, 3):
            e = trivial_bundle(amb, rank)
            assert_roots_give_chern(e)
            assert e.roots == ((amb.zero(), rank),)

    def test_sum_dual_twist(self):
        for amb in (P3, MultiProj((2, 1))):
            degs = [(1,) * len(amb.generators), tuple(range(-1, len(amb.generators) - 1))]
            e = trivial_bundle(amb, 0)
            for d in degs:
                e = direct_sum(e, line_bundle(amb, d))
            t = tangent_bundle(amb)
            l = line_bundle(amb, degs[1])
            for bundle in (e, dual(e), tensor_line(e, l), direct_sum(e, t), dual(t),
                           tensor_line(t, l), tensor_line(dual(t), l)):
                assert_roots_give_chern(bundle)
            # the zero root of T keeps multiplicity -1 and becomes c1(L)
            assert (l.c1(), -len(amb.generators)) in tensor_line(t, l).roots

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_tangent_bundle_of_every_ring(self, name):
        assert_roots_give_chern(tangent_bundle(RINGS[name]))

    @pytest.mark.parametrize("name", ["bundle", "tower", "corrupted"])
    def test_bundle_ring_roots(self, name):
        # F = p*E - O(1) and p*E^v (x) O(1) = T_rel + O, also on the ring
        # with a corrupted relation, where they are raw Chern data
        ring = RINGS[name]
        assert roots_product(ring.sub_roots, ring) == ring.sub_chern
        assert roots_product(ring.relative_tangent_roots, ring) == ring.relative_tangent_chern
        if name != "corrupted":
            assert_roots_give_chern(taut_sub_chern(ring))

    def test_make_bundle_ring_keeps_roots(self):
        e = direct_sum(line_bundle(P2, 2), line_bundle(P2, -1))
        ring = make_bundle_ring(P2, e)
        assert ring.roots == e.roots
        assert ring == ProjBundle(P2, 2, e.chern)  # roots do not enter equality
        assert_roots_give_chern(tangent_bundle(ring))

    def test_rootless_bundle(self):
        e = BundleClass(P3, 2, P3.one() + P3.gen(0).scale(3) + (P3.gen(0) ** 2).scale(2))
        assert e.roots is None
        assert dual(e).roots is None and direct_sum(e, e).roots is None
        assert tangent_bundle(make_bundle_ring(P3, e)).roots is None
        assert e == direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))

    def test_roots_are_checked(self):
        h = P2.gen(0)
        chern = P2.one() + h
        with pytest.raises(ValueError, match="sum to the rank"):
            BundleClass(P2, 1, chern, ((h, 1), (P2.zero(), 1)))
        with pytest.raises(ValueError, match="codimension 1"):
            BundleClass(P2, 1, chern, ((h + h * h, 1),))
        with pytest.raises(AmbientMismatchError):
            BundleClass(P2, 1, chern, ((P3.gen(0), 1),))
        with pytest.raises(ValueError, match="sum to the rank"):
            ProjBundle(P2, 2, chern, ((h, 1),))

    def test_times_chern_round_trip(self):
        amb = MultiProj((2, 2))
        a = (amb.one() + amb.gen(0)) * (amb.one() - amb.gen(1).scale(3)) + amb.point_class()
        t = tangent_bundle(amb)
        for s in (1, 2, 5):
            there = times_chern(a, chern_roots(t, s))
            assert there == a * t.chern ** s
            assert times_chern(there, chern_roots(t, -s)) == a
