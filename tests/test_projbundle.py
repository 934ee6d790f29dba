"""Projective-bundle ring identities and the general-case reduction."""

import itertools

import pytest

from milnor_classes.chow import MultiProj, ProjSpace
from milnor_classes.bundles import BundleClass, direct_sum, line_bundle, top_chern, trivial_bundle
from milnor_classes.charclass import virtual_class
from milnor_classes.projbundle import (
    GeneralCaseInput,
    flat_pullback_check,
    grothendieck_residual,
    lemma_transfer,
    make_bundle_ring,
    milnor_general,
    taut_sub_chern,
    verify_tangent_identities,
)
from milnor_classes.verify import CorruptedBundle
from test_verify_suites import run_property

P1 = ProjSpace(1)
P2 = ProjSpace(2)

TWIST_GRID = [(0, 0), (1, 2), (-1, 3), (2, 2), (0, 5), (-2, -1), (1, 1)]


def split_bundle(base, degrees):
    e = trivial_bundle(base, 0)
    for d in degrees:
        e = direct_sum(e, line_bundle(base, d))
    return e


def split_ring(base, degrees, corrupt=False):
    e = split_bundle(base, degrees)
    return CorruptedBundle(base, e.rank, e.chern) if corrupt else make_bundle_ring(base, e)


class TestTautSub:
    def test_rank1_is_trivial(self):
        ring = make_bundle_ring(P2, line_bundle(P2, 3))
        f = taut_sub_chern(ring)
        assert f.rank == 0
        assert f.chern == ring.one()

    def test_p1_example(self):
        # c(F) = (1+ah)(1+bh)(1+z)^(-1) reduces to 1 + (a+b) h - z
        for a, b in [(1, 2), (0, 0), (-1, 3)]:
            ring = split_ring(P1, [a, b])
            f = taut_sub_chern(ring)
            h, z = ring.gen(0), ring.zeta()
            assert f.chern == ring.one() + h.scale(a + b) - z
            assert f.chern.component(2).is_zero()
            assert top_chern(f) == h.scale(a + b) - z

    def test_grothendieck_residual_vanishes(self):
        for degrees in [[1, 2], [0, 0, 1], [2, -1, 3]]:
            base = P2 if len(degrees) > 2 else P1
            assert grothendieck_residual(split_ring(base, degrees)).is_zero()

    def test_residual_detects_corruption(self):
        ring = split_ring(P1, [1, 2], corrupt=True)
        assert not grothendieck_residual(ring).is_zero()


class TestPushforward:
    def test_zeta_power_r_minus_1(self):
        ring = split_ring(P1, [1, 2])
        assert ring.pushforward(ring.zeta()) == P1.one()

    def test_pullback_kills(self):
        ring = split_ring(P1, [1, 2])
        assert ring.pushforward(ring.pullback(P1.gen(0))).is_zero()

    def test_zeta_squared(self):
        # z^2 reduces to (a+b) h z over P^1, so p_* gives (a+b) h
        ring = split_ring(P1, [1, 2])
        assert ring.pushforward(ring.zeta() ** 2) == P1.gen(0).scale(3)

    def test_projection_formula_randomized(self):
        # also the flat-pullback shadow on random classes
        run_property("projbundle", "projection-formula")

    def test_flat_pullback_shadow(self):
        ring = split_ring(P2, [2, -1])
        assert flat_pullback_check(ring, P2.one())
        assert flat_pullback_check(ring, P2.gen(0).scale(-7) + P2.point_class().scale(3))

    def test_corrupted_pushforward_fails(self):
        # negative control: reading the wrong zeta power breaks the identity
        ring = split_ring(P2, [1, 1])
        alpha = P2.gen(0)

        def bad_pushforward(a):
            out = {}
            for mono, c in a.coeffs.items():
                if mono[-1] == ring.rank - 2:
                    out[mono[:-1]] = c
            return P2.from_coeffs(out)

        lifted = ring.zeta() ** (ring.rank - 1) * ring.pullback(alpha)
        assert bad_pushforward(lifted) != alpha


class TestNormalFormUniqueness:
    def test_association_orders(self):
        ring = split_ring(P1, [1, 2])
        factors = [ring.gen(0), ring.zeta(), ring.zeta(),
                   ring.one() + ring.zeta(), ring.gen(0), ring.zeta()]
        reference = None
        for perm in itertools.islice(itertools.permutations(range(6)), 40):
            prod = ring.one()
            for i in perm:
                prod = prod * factors[i]
            if reference is None:
                reference = prod
            assert prod == reference


class TestTangentIdentities:
    @pytest.mark.parametrize("a,b", TWIST_GRID)
    def test_grid_passes(self, a, b):
        chk = verify_tangent_identities(split_ring(P1, [a, b]))
        assert chk.ok

    def test_rank1_trivial(self):
        ring = make_bundle_ring(P2, line_bundle(P2, 3))
        assert verify_tangent_identities(ring).ok
        # ok includes the equality of the two routes; rank 1 leaves only degree 0
        tangent = ring.relative_tangent_chern
        assert tangent.component(0) == tangent

    def test_corrupted_relation_fails(self):
        for a, b in [(1, 2), (-1, 3), (2, 2)]:
            chk = verify_tangent_identities(split_ring(P1, [a, b], corrupt=True))
            assert not chk.ok

    def test_rank3_over_p2(self):
        chk = verify_tangent_identities(split_ring(P2, [1, 0, 2]))
        assert chk.ok


class TestLemmaTransfer:
    def test_rank0_identity(self):
        f = trivial_bundle(P2, 0)
        cls = P2.gen(0).scale(4)
        assert lemma_transfer(f, cls) == cls

    def test_line_bundle_form(self):
        f = line_bundle(P2, 2)
        cls = P2.gen(0)
        expected = f.chern.inverse() * f.c1() * cls
        assert lemma_transfer(f, cls) == expected

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, 2), (-1, 2), (1, 3)])
    def test_split_virtual_check(self, a, b):
        # transferring the virtual class of Z(t_H) down O(a) must give the
        # virtual class of the complete intersection of O(a) and O(b)
        g = direct_sum(line_bundle(P2, a), line_bundle(P2, b))
        if top_chern(g).is_zero():
            pytest.skip("not a regular-section setup")
        virt_g = virtual_class(P2, g, top_chern(g))
        h_bundle = line_bundle(P2, b)
        virt_h = virtual_class(P2, h_bundle, top_chern(h_bundle))
        assert lemma_transfer(line_bundle(P2, a), virt_h) == virt_g


class TestMilnorGeneral:
    def test_rank1_returns_input(self):
        ring = make_bundle_ring(P2, line_bundle(P2, 3))
        synthetic = ring.pullback(P2.gen(0) + P2.point_class().scale(4))
        out = milnor_general(GeneralCaseInput(ring, synthetic))
        assert out == P2.gen(0) + P2.point_class().scale(4)

    def test_zero_input(self):
        ring = split_ring(P1, [1, 1])
        assert milnor_general(GeneralCaseInput(ring, ring.zero())).is_zero()

    def test_golden_p1(self):
        # frozen by independent expansion: over P^1 the kernel contains
        # z^(r-1) c_top(F) = p*(c_2(E)) = 0, so any input maps to zero
        ring = split_ring(P1, [1, 1])
        mtilde = ring.pullback(P1.gen(0)) * ring.zeta()
        assert milnor_general(GeneralCaseInput(ring, mtilde)).is_zero()

    def test_golden_p2(self):
        # frozen by independent expansion in the reduced ring:
        # K = h^2 (1 - z) and K z = h^2 z, so p_* gives h^2
        ring = split_ring(P2, [1, 1])
        out = milnor_general(GeneralCaseInput(ring, ring.zeta()))
        assert out == P2.gen(0) ** 2

    def test_kernel_identity_zeta_ctop(self):
        # z^(r-1) c_top(F) = p*(c_r(E)): the mechanism behind the goldens
        for degrees in [[1, 1], [2, 1], [1, 0]]:
            ring = split_ring(P2, degrees)
            f = taut_sub_chern(ring)
            lhs = ring.zeta() ** (ring.rank - 1) * top_chern(f)
            e = direct_sum(line_bundle(P2, degrees[0]), line_bundle(P2, degrees[1]))
            assert lhs == ring.pullback(e.chern.component(2))

    def test_input_must_live_in_ring(self):
        ring = split_ring(P1, [1, 1])
        with pytest.raises(ValueError, match="bundle ring"):
            GeneralCaseInput(ring, P1.one())


def rootless(e):
    """E with the same rank and Chern class but no Chern roots."""
    return BundleClass(e.ambient, e.rank, e.chern)


def expanded_general(ring, mtilde):
    """The reduction formula with every c(.)^(-1) an expanded inverse."""
    f = taut_sub_chern(ring)
    kernel = (ring.relative_tangent_chern.inverse() * ring.zeta() ** (ring.rank - 1)
              * ring.sub_chern.inverse() * top_chern(f))
    return ring.pushforward(kernel * mtilde)


P3 = ProjSpace(3)
P4 = ProjSpace(4)
P2XP1 = MultiProj((2, 1))
# bases of dimension above the rank, so that c_top(E) is not a point class
SPLIT_CASES = [
    (P1, [1, 1]), (P2, [1, 1]), (P2, [2, -1]), (P3, [1, 1]), (P3, [2, -1]),
    (P4, [1, 2]), (P4, [1, 2, 3]), (P2XP1, [(1, 0), (1, 1)]),
    (P2XP1, [(1, 2), (0, 0), (-1, 1)]),
]
SPLIT_IDS = [f"{base!r}-{degrees}".replace(" ", "") for base, degrees in SPLIT_CASES]


class TestRootless:
    """Bundles without Chern roots enter each kernel as one expanded factor."""

    @staticmethod
    def _inputs(ring):
        z, h = ring.zeta(), ring.pullback(ring.base.gen(0))
        dense = (ring.one() + z + h) ** ring.dimension
        return [ring.zeta(), h * z + z ** 2, dense, ring.pullback(ring.base.one())]

    @pytest.mark.parametrize("base,degrees", SPLIT_CASES, ids=SPLIT_IDS)
    def test_milnor_general_matches_split(self, base, degrees):
        e = split_bundle(base, degrees)
        split = make_bundle_ring(base, e)
        plain = make_bundle_ring(base, rootless(e))
        assert split.roots is not None and plain.roots is None
        for mtilde in self._inputs(split):
            via_roots = milnor_general(GeneralCaseInput(split, mtilde))
            moved = plain.from_coeffs(mtilde.coeffs)
            assert milnor_general(GeneralCaseInput(plain, moved)) == via_roots
            assert via_roots == expanded_general(split, mtilde)

    def test_goldens_without_roots(self):
        ring = make_bundle_ring(P2, rootless(split_bundle(P2, [1, 1])))
        assert milnor_general(GeneralCaseInput(ring, ring.zeta())) == P2.gen(0) ** 2
        ring = make_bundle_ring(P1, rootless(split_bundle(P1, [1, 1])))
        mtilde = ring.pullback(P1.gen(0)) * ring.zeta()
        assert milnor_general(GeneralCaseInput(ring, mtilde)).is_zero()

    @pytest.mark.parametrize("base,degrees", SPLIT_CASES, ids=SPLIT_IDS)
    def test_lemma_transfer_matches_split(self, base, degrees):
        f = split_bundle(base, degrees)
        cls = (base.one() + base.gen(0)) ** base.dimension
        expected = f.chern.inverse() * top_chern(f) * cls
        assert lemma_transfer(rootless(f), cls) == expected
        assert lemma_transfer(f, cls) == expected

    @pytest.mark.parametrize("base,degrees", SPLIT_CASES, ids=SPLIT_IDS)
    def test_virtual_class_matches_split(self, base, degrees):
        e = split_bundle(base, degrees)
        x = top_chern(e)
        expected = base.tangent_chern * e.chern.inverse() * x
        assert virtual_class(base, rootless(e), x) == expected
        assert virtual_class(base, e, x) == expected


class TestO1:
    def test_relative_tangent_of_projective_space(self):
        # over a point, P(E^v) for trivial E is plain projective space and
        # the relative tangent class is the usual (1+h)^r mod h^r
        p0 = ProjSpace(0)
        ring = make_bundle_ring(p0, trivial_bundle(p0, 3))
        t = ring.relative_tangent_chern
        z = ring.zeta()
        assert t == (ring.one() + z) ** 3
        assert BundleClass(ring, 1, ring.one() + z).c1() == z
