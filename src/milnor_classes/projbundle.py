"""The general case: Chow ring of P(E^v), tautological classes, pushforward.

For a rank-r bundle E on a base M, the total space P(E^v) carries the
tautological sequence 0 -> F -> p*E -> O(1) -> 0.  The zeta-relation of
the ring is derived from c(F) vanishing in codimension r (see chow); this
module supplies the bundle-geometry layer on top:

* the sub-bundle class F and its top Chern class;
* the two independent computations of the relative tangent class, whose
  equality in the reduced ring is the Grothendieck relation in disguise;
* the transfer of Milnor classes down an exact sequence (unit times top
  Chern class);
* the full reduction formula expressing the Milnor class of a complete
  intersection Z(s) through that of the induced hypersurface Z(s~):

  M(Z(s)) = p_* ( c(p*E^v (x) O(1))^(-1) zeta^(r-1) c(F)^(-1) c_top(F)
                  cap M(Z(s~)) ).

  For split E with roots e_i, p*E^v (x) O(1) has the roots z - e_i and F
  the roots e_i and z with multiplicity -1, so the kernel is one
  `times_chern` over those roots; without roots each of the two bundles
  is one expanded factor c - 1, divided out by the same recurrence.

M(Z(s~)) is an input; the calculator exercises the formula through its
exact identities, degenerations, and synthetic frozen values.
"""

from __future__ import annotations

from .chow import AmbientSpace, CycleClass, ProjBundle, same_ambient, times_chern, twist_chern
from .bundles import BundleClass, chern_roots, top_chern


def make_bundle_ring(base: AmbientSpace, e: BundleClass) -> ProjBundle:
    """The Chow ring of P(E^v) as an ambient space."""
    if not same_ambient(e.ambient, base):
        raise ValueError("bundle does not live on the given base")
    return ProjBundle(base, e.rank, e.chern, e.roots)


def taut_sub_chern(ring: ProjBundle) -> BundleClass:
    """The tautological sub-bundle F: rank r-1, c(F) = c(p*E) (1+zeta)^(-1).

    Construction validates that the reduced class vanishes in codimension
    >= r, which is exactly the Grothendieck relation of the ring.
    """
    return BundleClass(ring, ring.rank - 1, ring.sub_chern, ring.sub_roots)


class TangentCheck:
    __slots__ = ("ok",)

    def __init__(self, ok: bool):
        self.ok = ok


def verify_tangent_identities(ring: ProjBundle) -> TangentCheck:
    """Two routes to the relative tangent class must agree exactly.

    Route one twists the pulled-back dual bundle by O(1) (the relative
    Euler sequence, with the trivial sub contributing the factor 1).  Route
    two twists the dual tautological sub-bundle (the relative tangent is
    Hom(F, O(1))).  Equality after reduction encodes the ring relation;
    flipping a relation sign breaks it.  Computed on raw Chern data so a
    corrupted ring yields ok = False rather than an exception.
    """
    via_dual = ring.relative_tangent_chern
    via_sub = twist_chern(ring.sub_chern.dual(), ring.rank - 1, ring.zeta())
    # the twisted dual has formal rank r but must reduce to a rank r-1
    # class; its codim >= r parts vanish exactly when the relation holds
    ok = via_dual == via_sub and not via_dual.part(ring.rank, ring.dimension)
    return TangentCheck(ok)


def lemma_transfer(f: BundleClass, cls: CycleClass) -> CycleClass:
    """Exact-sequence transfer: c(F)^(-1) c_top(F) cap (class on Z_1)."""
    if not same_ambient(f.ambient, cls.ambient):
        raise ValueError("bundle and class live on different ambients")
    return times_chern(top_chern(f) * cls, chern_roots(f, -1))


class GeneralCaseInput:
    """Base, bundle, and the Milnor class of the induced hypersurface."""

    __slots__ = ("ring", "milnor_of_tilde")

    def __init__(self, ring: ProjBundle, milnor_of_tilde: CycleClass):
        if not same_ambient(milnor_of_tilde.ambient, ring):
            raise ValueError("milnor_of_tilde must live in the bundle ring")
        self.ring = ring
        self.milnor_of_tilde = milnor_of_tilde


def milnor_general(inp: GeneralCaseInput) -> CycleClass:
    """Push the kernel-weighted Milnor class of Z(s~) down to the base."""
    ring = inp.ring
    f = taut_sub_chern(ring)
    weighted = ring.zeta() ** (ring.rank - 1) * top_chern(f) * inp.milnor_of_tilde
    tangent = ring.relative_tangent_roots
    if tangent is None:
        tangent = ((ring.relative_tangent_chern - ring.one(), 1),)
    roots = chern_roots(f, -1) + tuple((x, -m) for x, m in tangent)
    return ring.pushforward(times_chern(weighted, roots))


def projection_formula_check(ring: ProjBundle, alpha: CycleClass,
                             beta: CycleClass) -> bool:
    """p_*(p*(alpha) beta) = alpha p_*(beta), exactly."""
    lhs = ring.pushforward(ring.pullback(alpha) * beta)
    return lhs == alpha * ring.pushforward(beta)


def flat_pullback_check(ring: ProjBundle, alpha: CycleClass) -> bool:
    """p_*(zeta^(r-1) p*(alpha)) = alpha: the degree-one shadow of flatness."""
    lifted = ring.zeta() ** (ring.rank - 1) * ring.pullback(alpha)
    return ring.pushforward(lifted) == alpha


def grothendieck_residual(ring: ProjBundle) -> CycleClass:
    """Codimension >= r part of c(p*E) (1+zeta)^(-1); zero iff the relation holds."""
    return ring.sub_chern.part(ring.rank, ring.dimension)
