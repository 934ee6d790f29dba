"""Ring axioms and normal-form behavior of the truncated Chow rings."""

import pytest

from milnor_classes.chow import (
    AmbientMismatchError,
    MultiProj,
    ProjBundle,
    ProjSpace,
    parse_class,
)
from milnor_classes.bundles import direct_sum, line_bundle
from test_verify_suites import run_property

P2 = ProjSpace(2)
P3 = ProjSpace(3)
P1xP1 = MultiProj((1, 1))


class TestMakeAmbient:
    def test_p2(self):
        amb = ProjSpace(2)
        assert amb == ProjSpace(2)
        assert amb.dimension == 2
        assert amb.gen_names == ("h",)
        h = amb.gen(0)
        assert (h ** 3).is_zero()

    def test_multiproj(self):
        amb = MultiProj((1, 1))
        assert amb.dimension == 2
        assert amb.gen_names == ("h1", "h2")
        assert (amb.gen(0) ** 2).is_zero()
        assert (amb.gen(1) ** 2).is_zero()

    def test_projbundle_dimension(self):
        e = direct_sum(line_bundle(ProjSpace(1), 0), line_bundle(ProjSpace(1), 0))
        pb = ProjBundle(ProjSpace(1), 2, e.chern)
        assert pb.dimension == 2
        assert pb.gen_names == ("h", "z")

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            ProjSpace(-1)
        with pytest.raises(ValueError):
            MultiProj((1, -2))

    def test_bundle_base_mismatch_rejected(self):
        chern_on_p2 = line_bundle(P2, 1).chern
        with pytest.raises(AmbientMismatchError):
            ProjBundle(ProjSpace(1), 2, chern_on_p2)

    def test_bundle_rank_validated(self):
        with pytest.raises(ValueError, match="rank"):
            ProjBundle(P2, 0, P2.one())


class TestArithmetic:
    def test_add_cancels(self):
        h = P2.gen(0)
        assert (P2.one() + h) + (P2.one() - h) == P2.from_int(2)

    def test_neg_and_scale(self):
        pt = P2.point_class()
        assert (-pt.scale(3)).coeffs == {(2,): -3}
        assert P2.gen(0).scale(0).is_zero()

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(TypeError, match="exact integers"):
            P2.gen(0).scale(0.5)
        with pytest.raises(TypeError, match="exact integers"):
            P2.from_coeffs({(1,): 1.5})

    def test_mul_p2(self):
        h = P2.gen(0)
        sq = (P2.one() + h) * (P2.one() + h)
        assert sq == P2.one() + h.scale(2) + h * h
        assert (h * h * h).is_zero()

    def test_mul_multiproj_inverse_pair(self):
        one = P1xP1.one()
        a = one + P1xP1.gen(0) + P1xP1.gen(1)
        b = one - P1xP1.gen(0) - P1xP1.gen(1) + (P1xP1.gen(0) * P1xP1.gen(1)).scale(2)
        assert a * b == one

    def test_inverse_examples(self):
        # oracle: multiply back and compare against 1
        a = P2.one() + P2.gen(0).scale(3)
        inv = a.inverse()
        h = P2.gen(0)
        assert inv == P2.one() - h.scale(3) + (h * h).scale(9)
        assert a * inv == P2.one()
        assert P2.one().inverse() == P2.one()

    def test_inverse_multiproj_frozen(self):
        # oracle: the product with the claimed inverse expands to 1
        one = P1xP1.one()
        a = one + P1xP1.gen(0) + P1xP1.gen(1)
        expected = (one - P1xP1.gen(0) - P1xP1.gen(1)
                    + (P1xP1.gen(0) * P1xP1.gen(1)).scale(2))
        assert a * expected == one
        assert a.inverse() == expected

    def test_inverse_requires_unit(self):
        with pytest.raises(ValueError):
            P2.from_int(2).inverse()
        with pytest.raises(ValueError):
            P2.gen(0).inverse()

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            P2.one() + P3.one()
        with pytest.raises(AmbientMismatchError):
            P2.one() * P3.one()


class TestGrading:
    def test_component(self):
        h = P2.gen(0)
        a = h.scale(3) + h * h
        assert a.component(2) == h * h
        assert a.component(0).is_zero()

    def test_component_out_of_range(self):
        with pytest.raises(ValueError):
            P2.one().component(3)
        with pytest.raises(ValueError):
            P2.one().component(-1)

    def test_degree(self):
        h = P2.gen(0)
        assert (h * h).scale(3).degree() == 3
        assert h.degree() == 0
        assert P1xP1.point_class().degree() == 1


class TestProperties:
    """The randomized ring axioms are stated once, in verify.SUITES["ring"]."""

    def test_ring_axioms(self):
        run_property("ring", "axioms")

    def test_inverse_roundtrip(self):
        run_property("ring", "inverse")

    def test_grading_of_products(self):
        run_property("ring", "grading")

    def test_degree_additive(self):
        run_property("ring", "degree-additive")

    def test_render_parse_roundtrip(self):
        run_property("ring", "render-roundtrip")


class TestRendering:
    def test_descending_codimension(self):
        h = P2.gen(0)
        a = h.scale(3) + (h * h).scale(2) + P2.one()
        assert a.render() == "2*h^2 + 3*h + 1"

    def test_unit_coefficients_omitted(self):
        h = P3.gen(0)
        assert (h * h - h ** 3).render() == "-h^3 + h^2"

    def test_zero(self):
        assert P2.zero().render() == "0"
        assert parse_class(P2, "0").is_zero()

    def test_parse_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_class(P2, "h1 + 1")

    def test_parse_rejects_exponent_above_cap(self):
        # h^3 = 0 on P^2, so reading it as zero would hide a typo
        with pytest.raises(ValueError, match="h\\^3"):
            parse_class(P2, "h^3 + h")
        with pytest.raises(ValueError, match="h1\\^2"):
            parse_class(P1xP1, "h1*h1*h2")

    def test_parse_multiproj(self):
        a = parse_class(P1xP1, "2*h1*h2 - h1 + 1")
        assert a.coeffs == {(1, 1): 2, (1, 0): -1, (0, 0): 1}


class TestProjBundleRing:
    def test_relation_p1_example(self):
        # over P^1 with E = O(a)+O(b): z^2 = (a+b) h z (the c2 term dies on P^1)
        p1 = ProjSpace(1)
        for a, b in [(1, 2), (0, 0), (-1, 3)]:
            e = direct_sum(line_bundle(p1, a), line_bundle(p1, b))
            pb = ProjBundle(p1, 2, e.chern)
            z = pb.zeta()
            assert z * z == (pb.gen(0) * z).scale(a + b)

    def test_trivial_bundle_gives_projective_space(self):
        # P((C^r)^v) over a point is P^(r-1)
        p0 = ProjSpace(0)
        pb = ProjBundle(p0, 3, p0.one())
        z = pb.zeta()
        assert not (z * z).is_zero()
        assert (z ** 3).is_zero()
        assert (z * z).degree() == 1

    def test_pushforward_normal_form(self):
        p1 = ProjSpace(1)
        e = direct_sum(line_bundle(p1, 1), line_bundle(p1, 2))
        pb = ProjBundle(p1, 2, e.chern)
        z = pb.zeta()
        assert pb.pushforward(z) == p1.one()
        assert pb.pushforward(pb.pullback(p1.gen(0))) == p1.zero()
        assert pb.pushforward(z * z) == p1.gen(0).scale(3)

    def test_rank1_is_base(self):
        p2 = ProjSpace(2)
        pb = ProjBundle(p2, 1, line_bundle(p2, 3).chern)
        assert pb.dimension == 2
        assert pb.zeta() == pb.pullback(p2.gen(0).scale(3))
        a = p2.gen(0) + p2.point_class().scale(5)
        assert pb.pushforward(pb.pullback(a)) == a
