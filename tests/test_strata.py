"""Stratification data: validation, gamma weights and builtin closures."""

import pytest

from milnor_classes.chow import ProjSpace, parse_class
from milnor_classes.bundles import line_bundle
from milnor_classes.strata import (
    StratificationError,
    StratifiedHypersurface,
    Stratum,
    gamma_weights,
    linear_closure,
    mu_weight,
    point_closure,
)

P2 = ProjSpace(2)
P3 = ProjSpace(3)


def reg_stratum(ambient, degree, csm=None):
    lb = line_bundle(ambient, degree)
    return Stratum("reg", dim=ambient.dimension - 1, milnor_fiber_chi=1,
                   closure_class=lb.c1(), csm_closure=csm)


def nodal_cubic():
    cl, csm = point_closure(P2)
    node = Stratum("node", dim=0, milnor_fiber_chi=0, closure_class=cl,
                   csm_closure=csm, contained_in={"reg"})
    csm_x = P2.gen(0).scale(3) + P2.point_class()
    return StratifiedHypersurface("nodal_cubic", P2, line_bundle(P2, 3),
                                  (reg_stratum(P2, 3, csm_x), node))


def two_planes():
    cl, csm = linear_closure(P3, 1)
    line = Stratum("line", dim=1, milnor_fiber_chi=0, closure_class=cl,
                   csm_closure=csm, contained_in={"reg"})
    h = P3.gen(0)
    csm_x = h.scale(2) + (h * h).scale(5) + (h ** 3).scale(4)
    return StratifiedHypersurface("two_planes", P3, line_bundle(P3, 2),
                                  (reg_stratum(P3, 2, csm_x), line))


class TestMuWeight:
    def test_node_on_plane_curve(self):
        hyp = nodal_cubic()
        node = next(s for s in hyp.strata if s.name == "node")
        assert mu_weight(node, hyp) == 1

    def test_smooth_point(self):
        hyp = nodal_cubic()
        assert mu_weight(hyp.open_stratum, hyp) == 0

    def test_cusp(self):
        cl, csm = point_closure(P2)
        cusp = Stratum("cusp", dim=0, milnor_fiber_chi=-1, closure_class=cl,
                       csm_closure=csm, contained_in={"reg"})
        hyp = StratifiedHypersurface("cuspidal_cubic", P2, line_bundle(P2, 3),
                                     (reg_stratum(P2, 3), cusp))
        assert mu_weight(cusp, hyp) == 2

    def test_double_line_in_p3(self):
        hyp = two_planes()
        line = next(s for s in hyp.strata if s.name == "line")
        assert mu_weight(line, hyp) == -1


class TestGammaWeights:
    def test_nodal_cubic(self):
        assert gamma_weights(nodal_cubic()) == {"reg": 0, "node": 1}

    def test_two_planes(self):
        assert gamma_weights(two_planes()) == {"reg": 0, "line": -1}

    def test_chain_recursion(self):
        # point inside the closure of a line stratum: gamma_p = mu_p - gamma_line
        lcl, lcsm = linear_closure(P3, 1)
        pcl, pcsm = point_closure(P3)
        line = Stratum("line", dim=1, milnor_fiber_chi=0, closure_class=lcl,
                       csm_closure=lcsm, contained_in={"reg"})
        pt = Stratum("pt", dim=0, milnor_fiber_chi=4, closure_class=pcl,
                     csm_closure=pcsm, contained_in={"reg", "line"})
        hyp = StratifiedHypersurface("chain", P3, line_bundle(P3, 2),
                                     (reg_stratum(P3, 2), line, pt))
        gam = gamma_weights(hyp)
        assert gam["line"] == -1
        assert gam["pt"] == 3 - gam["line"]

    def test_smooth_hypersurface_all_zero(self):
        hyp = StratifiedHypersurface("smooth", P3, line_bundle(P3, 1),
                                     (reg_stratum(P3, 1),))
        assert gamma_weights(hyp) == {"reg": 0}

    def test_mu_reconstruction(self):
        # mu_S = sum of gamma over strata whose closures contain S (incl. S)
        hyp = two_planes()
        gam = gamma_weights(hyp)
        for s in hyp.strata:
            total = gam[s.name] + sum(gam[o] for o in s.contained_in)
            assert total == mu_weight(s, hyp)


class TestValidation:
    def test_two_open_strata_rejected(self):
        with pytest.raises(StratificationError):
            StratifiedHypersurface(
                "bad", P2, line_bundle(P2, 2),
                (reg_stratum(P2, 2),
                 Stratum("reg2", dim=1, milnor_fiber_chi=1,
                         closure_class=line_bundle(P2, 2).c1())))

    def test_unknown_containment_rejected(self):
        cl, csm = point_closure(P2)
        bad = Stratum("pt", dim=0, milnor_fiber_chi=0, closure_class=cl,
                      csm_closure=csm, contained_in={"ghost"})
        with pytest.raises(StratificationError, match="ghost"):
            StratifiedHypersurface("bad", P2, line_bundle(P2, 2),
                                   (reg_stratum(P2, 2), bad))

    def test_containment_must_increase_dimension(self):
        cl, csm = point_closure(P3)
        a = Stratum("a", dim=0, milnor_fiber_chi=0, closure_class=cl,
                    csm_closure=csm, contained_in={"reg", "b"})
        b = Stratum("b", dim=0, milnor_fiber_chi=0, closure_class=cl,
                    csm_closure=csm, contained_in={"reg", "a"})
        with pytest.raises(StratificationError):
            StratifiedHypersurface("cyclic", P3, line_bundle(P3, 2),
                                   (reg_stratum(P3, 2), a, b))

    def test_transitivity_enforced(self):
        lcl, lcsm = linear_closure(P3, 1)
        pcl, pcsm = point_closure(P3)
        line = Stratum("line", dim=1, milnor_fiber_chi=0, closure_class=lcl,
                       csm_closure=lcsm, contained_in={"reg"})
        pt = Stratum("pt", dim=0, milnor_fiber_chi=0, closure_class=pcl,
                     csm_closure=pcsm, contained_in={"line"})
        with pytest.raises(StratificationError, match="transitive"):
            StratifiedHypersurface("bad", P3, line_bundle(P3, 2),
                                   (reg_stratum(P3, 2), line, pt))

    def test_singular_stratum_needs_csm(self):
        cl, _ = point_closure(P2)
        node = Stratum("node", dim=0, milnor_fiber_chi=0, closure_class=cl,
                       contained_in={"reg"})
        with pytest.raises(StratificationError, match="csm_closure"):
            StratifiedHypersurface("bad", P2, line_bundle(P2, 3),
                                   (reg_stratum(P2, 3), node))

    def test_closure_codimension_checked(self):
        bad_cl = P3.gen(0)  # codim 1, but dim 1 stratum needs codim 2
        line = Stratum("line", dim=1, milnor_fiber_chi=0, closure_class=bad_cl,
                       csm_closure=bad_cl, contained_in={"reg"})
        with pytest.raises(StratificationError, match="codimension"):
            StratifiedHypersurface("bad", P3, line_bundle(P3, 2),
                                   (reg_stratum(P3, 2), line))

    @pytest.mark.parametrize("text,fault", [("h + h^2", 1), ("h^2 + h^3", 3),
                                            ("h + h^2 + h^3", 1), ("1 + h^2", 0)])
    def test_closure_codimension_names_lowest_fault(self, text, fault):
        closure = parse_class(P3, text)
        line = Stratum("line", dim=1, milnor_fiber_chi=0, closure_class=closure,
                       csm_closure=closure, contained_in={"reg"})
        with pytest.raises(StratificationError,
                           match=f"^bad: closure class of line has a part in codimension "
                                 f"{fault}, expected pure codimension 2$"):
            StratifiedHypersurface("bad", P3, line_bundle(P3, 2),
                                   (reg_stratum(P3, 2), line))


class TestBuiltinClosures:
    def test_point(self):
        cl, csm = point_closure(P3, 3)
        assert cl == P3.point_class().scale(3)
        assert csm.degree() == 3

    def test_linear_line_in_p3(self):
        cl, csm = linear_closure(P3, 1)
        h = P3.gen(0)
        assert cl == h * h
        assert csm == h * h + (h ** 3).scale(2)
        assert csm.degree() == 2  # chi(P^1)

    def test_linear_plane_in_p3(self):
        cl, csm = linear_closure(P3, 2)
        h = P3.gen(0)
        assert csm == h + (h * h).scale(3) + (h ** 3).scale(3)
        assert csm.degree() == 3  # chi(P^2)

    def test_linear_range_checked(self):
        with pytest.raises(ValueError):
            linear_closure(P3, 3)
        with pytest.raises(ValueError):
            linear_closure(P3, -1)
