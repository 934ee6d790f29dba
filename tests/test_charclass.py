"""Virtual, CSM, Milnor, and mu-class computations against the chi oracle.

Expected values are frozen from two independent routes per fixture: the
definition route (virtual class minus an independently derived CSM class,
with the dimension sign) and the weighted-strata route.  Euler
characteristics come from elementary geometry, recorded next to each
fixture.
"""

import pytest

from milnor_classes.chow import ProjSpace, line_twist
from milnor_classes.bundles import direct_sum, line_bundle, top_chern
from milnor_classes.charclass import (
    ClassBundle3,
    aluffi_milnor,
    csm_from_milnor,
    hypersurface_classes,
    milnor_pp,
    mu_class,
    segre_builtin,
    virtual_class,
)
from milnor_classes.strata import (
    StratifiedHypersurface,
    Stratum,
    linear_closure,
    point_closure,
)

P2 = ProjSpace(2)
P3 = ProjSpace(3)


def build_hyp(name, ambient, degree, singular=None):
    """singular: list of (name, dim, chi_fiber, closure kind, arg, contained_in)."""
    lb = line_bundle(ambient, degree)
    strata = [Stratum("reg", dim=ambient.dimension - 1, milnor_fiber_chi=1,
                      closure_class=lb.c1())]
    for sname, dim, chif, kind, arg, above in singular or []:
        cl, csm = (point_closure(ambient, arg) if kind == "points"
                   else linear_closure(ambient, arg))
        strata.append(Stratum(sname, dim=dim, milnor_fiber_chi=chif,
                              closure_class=cl, csm_closure=csm,
                              contained_in=frozenset(above)))
    return StratifiedHypersurface(name, ambient, lb, tuple(strata))


NODAL_CUBIC = build_hyp("nodal_cubic", P2, 3,
                        [("node", 0, 0, "points", 1, {"reg"})])
CUSPIDAL_CUBIC = build_hyp("cuspidal_cubic", P2, 3,
                           [("cusp", 0, -1, "points", 1, {"reg"})])
QUADRIC_CONE = build_hyp("quadric_cone", P3, 2,
                         [("vertex", 0, 2, "points", 1, {"reg"})])
TWO_PLANES = build_hyp("two_planes", P3, 2,
                       [("line", 1, 0, "linear", 1, {"reg"})])
SMOOTH_QUARTIC = build_hyp("smooth_quartic", P3, 4)


class TestVirtualClass:
    def test_nodal_cubic(self):
        virt = virtual_class(P2, line_bundle(P2, 3), line_bundle(P2, 3).c1())
        assert virt == P2.gen(0).scale(3)
        assert virt.degree() == 0  # chi of a smooth plane cubic

    def test_quadric_cone_ambient(self):
        virt = virtual_class(P3, line_bundle(P3, 2), line_bundle(P3, 2).c1())
        h = P3.gen(0)
        assert virt == h.scale(2) + (h * h).scale(4) + (h ** 3).scale(4)
        assert virt.degree() == 4  # chi of a smooth quadric surface

    def test_codim2_conic(self):
        e = direct_sum(line_bundle(P3, 2), line_bundle(P3, 1))
        virt = virtual_class(P3, e, top_chern(e))
        h = P3.gen(0)
        assert virt == (h * h).scale(2) + (h ** 3).scale(2)
        assert virt.degree() == 2  # chi of P^1

    def test_rejects_wrong_zero_class(self):
        with pytest.raises(ValueError, match="regular section"):
            virtual_class(P2, line_bundle(P2, 3), P2.gen(0))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_smooth_plane_curve_chi(self, d):
        # closed form 3d - d^2 from an independent expansion
        virt = virtual_class(P2, line_bundle(P2, d), line_bundle(P2, d).c1())
        assert virt.degree() == 3 * d - d * d

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_smooth_surface_chi(self, d):
        # closed form d^3 - 4d^2 + 6d; d = 4 gives the K3 value 24
        virt = virtual_class(P3, line_bundle(P3, d), line_bundle(P3, d).c1())
        assert virt.degree() == d ** 3 - 4 * d * d + 6 * d


class TestMilnorPP:
    def test_nodal_cubic(self):
        assert milnor_pp(NODAL_CUBIC) == P2.point_class()

    def test_cuspidal_cubic(self):
        assert milnor_pp(CUSPIDAL_CUBIC) == P2.point_class().scale(2)

    def test_quadric_cone(self):
        assert milnor_pp(QUADRIC_CONE) == P3.point_class()

    def test_two_planes(self):
        h = P3.gen(0)
        assert milnor_pp(TWO_PLANES) == -(h * h)

    def test_smooth(self):
        assert milnor_pp(SMOOTH_QUARTIC).is_zero()


class TestDefinitionIdentity:
    """Eq-(P) route equals the definition route with the oracle CSM class."""

    @pytest.mark.parametrize("hyp,csm_text,chi", [
        (NODAL_CUBIC, "h^2 + 3*h", 1),
        (CUSPIDAL_CUBIC, "2*h^2 + 3*h", 2),
        (QUADRIC_CONE, "3*h^3 + 4*h^2 + 2*h", 3),
        (TWO_PLANES, "4*h^3 + 5*h^2 + 2*h", 4),
    ])
    def test_oracle_equality(self, hyp, csm_text, chi):
        from milnor_classes.chow import parse_class
        ambient = hyp.ambient
        csm_oracle = parse_class(ambient, csm_text)
        assert csm_oracle.degree() == chi
        virt = virtual_class(ambient, hyp.line_bundle, hyp.line_bundle.c1())
        n = ambient.dimension
        sign = -1 if (n - 1) % 2 else 1
        assert milnor_pp(hyp) == (virt - csm_oracle).scale(sign)

    def test_class_triple_consistency(self):
        for hyp in (NODAL_CUBIC, CUSPIDAL_CUBIC, QUADRIC_CONE, TWO_PLANES,
                    SMOOTH_QUARTIC):
            cb = hypersurface_classes(hyp)
            assert cb.definition_identity_holds()

    def test_triple_equality_reads_the_classes_not_the_strata(self):
        cb = hypersurface_classes(NODAL_CUBIC)
        bare = ClassBundle3(cb.virt, cb.csm, cb.milnor)
        assert cb.hyp is NODAL_CUBIC and bare.hyp is None
        assert cb == bare
        zero = P2.zero()
        for changed in (ClassBundle3(zero, cb.csm, cb.milnor),
                        ClassBundle3(cb.virt, zero, cb.milnor),
                        ClassBundle3(cb.virt, cb.csm, zero)):
            assert cb != changed

    def test_csm_from_milnor_examples(self):
        h = P2.gen(0)
        csm = csm_from_milnor(h.scale(3), P2.point_class())
        assert csm == h.scale(3) + P2.point_class()
        assert csm.degree() == 1
        h3 = P3.gen(0)
        virt = h3.scale(2) + (h3 * h3).scale(4) + (h3 ** 3).scale(4)
        csm = csm_from_milnor(virt, P3.point_class())
        assert csm.degree() == 3
        # smooth: csm equals virt
        assert csm_from_milnor(virt, P3.zero()) == virt


class TestIsolatedMilnorNumbers:
    def test_degree_is_sum_of_local_numbers(self):
        assert milnor_pp(NODAL_CUBIC).degree() == 1
        assert milnor_pp(CUSPIDAL_CUBIC).degree() == 2
        assert milnor_pp(QUADRIC_CONE).degree() == 1

    def test_k_nodes(self):
        hyp = build_hyp("three_nodal_quartic", P2, 4,
                        [("nodes", 0, 0, "points", 3, {"reg"})])
        assert milnor_pp(hyp).degree() == 3
        cb = hypersurface_classes(hyp)
        # chi = (3d - d^2) + k
        assert cb.csm.degree() == (12 - 16) + 3


class TestAluffiOperations:
    def test_dual_flips_odd(self):
        h = P2.gen(0)
        a = h.scale(3) + h * h
        assert a.dual() == -h.scale(3) + h * h
        assert a.dual().dual() == a

    def test_dual_top_of_p3(self):
        assert P3.point_class().dual() == -P3.point_class()

    def test_tensor_trivial(self):
        h = P2.gen(0)
        a = h.scale(2) + (h * h).scale(5)
        assert line_twist(a, line_bundle(P2, 0).c1(), 0) == a

    def test_tensor_examples(self):
        h = P2.gen(0)
        assert line_twist(h * h, line_bundle(P2, 3).c1(), 0) == h * h
        assert line_twist(h, line_bundle(P2, 1).c1(), 0) == h - h * h

    def test_tensor_inverts(self):
        h = P3.gen(0)
        a = h + (h * h).scale(4) - (h ** 3).scale(2)
        ell = line_bundle(P3, 2).c1()
        assert line_twist(line_twist(a, ell, 0), -ell, 0) == a


class TestSegreBuiltin:
    def test_points(self):
        assert segre_builtin(P2, "points", 1) == P2.point_class()
        assert segre_builtin(P3, "points", 3) == P3.point_class().scale(3)

    def test_linear_line_in_p3(self):
        h = P3.gen(0)
        assert segre_builtin(P3, "linear", 1) == h * h - (h ** 3).scale(2)

    def test_unsupported_center(self):
        with pytest.raises(ValueError, match="builtin"):
            segre_builtin(P3, "twisted_cubic", 1)


class TestMuClassAndAluffiRoute:
    def test_mu_nodal(self):
        assert mu_class(NODAL_CUBIC, segre_builtin(P2, "points", 1)) == P2.point_class()

    def test_mu_k_nodes_linear(self):
        for k in (1, 2, 5):
            mu = mu_class(NODAL_CUBIC, segre_builtin(P2, "points", k))
            assert mu == P2.point_class().scale(k)

    def test_mu_two_planes(self):
        mu = mu_class(TWO_PLANES, segre_builtin(P3, "linear", 1))
        h = P3.gen(0)
        assert mu == h * h

    @pytest.mark.parametrize("hyp,center,arg", [
        (NODAL_CUBIC, "points", 1),
        (CUSPIDAL_CUBIC, "points", 2),
        (QUADRIC_CONE, "points", 1),
        (TWO_PLANES, "linear", 1),
    ])
    def test_aluffi_equals_weighted_strata(self, hyp, center, arg):
        mu = mu_class(hyp, segre_builtin(hyp.ambient, center, arg))
        assert aluffi_milnor(hyp, mu) == milnor_pp(hyp)

    def test_smooth_gives_zero(self):
        assert aluffi_milnor(SMOOTH_QUARTIC, P3.zero()).is_zero()
