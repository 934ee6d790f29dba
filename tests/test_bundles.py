"""Bundle calculus: Whitney formula, duals, twists, tangent bundles."""

import pytest

from milnor_classes.chow import MultiProj, ProjSpace
from milnor_classes.bundles import (
    BundleClass,
    bundle_power,
    direct_sum,
    dual,
    line_bundle,
    tangent_bundle,
    tensor_line,
    top_chern,
    trivial_bundle,
)
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
        t = tangent_bundle(P3)
        p = bundle_power(t, 2)
        assert p.rank == 6
        assert p.chern == t.chern * t.chern
        assert bundle_power(t, 0) == trivial_bundle(P3, 0)
