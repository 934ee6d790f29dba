"""The graded ring kernels: multiply, inverse, grading, dual and line twists.

Two kinds of checks run on every supported ring shape: P^n, products of
projective spaces (one with a P^0 factor, whose generator has cap 0), a
one-level and two two-level projective bundles (the second with inner cap
2, where the innermost-first rewrite rule matters), P(L^v) of a line
bundle and a tower whose outer level has rank 1 (a tautological generator
of cap 0, rewritten wherever it occurs), and the negative-control ring
with a flipped relation sign.

* An external oracle (sympy, skipped when absent): the normal form of a
  product is the remainder modulo a Groebner basis of the defining ideal,
  (h^(n+1), z^r - c1 z^(r-1) + c2 z^(r-2) - ...), built here from the
  definition of each ring rather than from its reduction code.
* Properties against slow references: the geometric-series inverse, the
  double-loop binomial twist and the power-by-power Aluffi twist kept in
  this file, and the term-by-term Le conversion of test_lecycles.  The
  line twist also inverts itself: twisting by -ell undoes twisting by ell.
* The Chern-root kernel `times_chern` against products with expanded
  powers and inverses of each 1 + ell, and undone by the opposite roots.
  Both sides divide through one recurrence, `chow.divide`, which the
  sympy oracle checks on its own.
"""

import random
from itertools import product
from math import comb, log2

import pytest
from hypothesis import given, settings, strategies as st

from milnor_classes.bundles import (
    BundleClass,
    direct_sum,
    line_bundle,
    tensor_line,
    trivial_bundle,
)
from milnor_classes.chow import (
    MultiProj,
    ProjBundle,
    ProjSpace,
    divide,
    line_twist,
    parse_class,
    times_chern,
    twist_chern,
)
from milnor_classes.lecycles import le_to_milnor
from milnor_classes.projbundle import (
    grothendieck_residual,
    make_bundle_ring,
    verify_tangent_identities,
)
from milnor_classes.verify import CorruptedBundle
from test_lecycles import naive_conversion


def _split(base, degrees):
    e = trivial_bundle(base, 0)
    for d in degrees:
        e = direct_sum(e, line_bundle(base, d))
    return e


def _rings():
    # the bundle levels carry the Chern roots of their split bundles
    p2 = ProjSpace(2)
    e = _split(p2, [1, 2, -1])
    e1 = _split(ProjSpace(1), [1, 3])
    level1 = ProjBundle(ProjSpace(1), 2, e1.chern, e1.roots)
    h, z = level1.gen(0), level1.zeta()
    chern2 = (level1.one() + h + z) * (level1.one() + h.scale(2) - z)
    line = _split(p2, [2])
    p3 = ProjSpace(3)
    e3 = _split(p3, [1, 2, 0])
    wide = ProjBundle(p3, 3, e3.chern, e3.roots)
    h3, z3 = wide.gen(0), wide.zeta()
    return {
        "P4": ProjSpace(4),
        "P2xP1xP1": MultiProj((2, 1, 1)),
        "P2xP0xP1": MultiProj((2, 0, 1)),
        "bundle": ProjBundle(p2, 3, e.chern, e.roots),
        "tower": ProjBundle(level1, 2, chern2, ((h + z, 1), (h.scale(2) - z, 1))),
        "corrupted": CorruptedBundle(p2, 3, e.chern, e.roots),
        # rank-1 levels: z has cap 0 and is rewritten as c1 wherever it occurs
        "line": ProjBundle(p2, 1, line.chern, line.roots),
        "line_tower": ProjBundle(level1, 1, level1.one() + h - z.scale(2),
                                 ((h - z.scale(2), 1),)),
        # inner cap 2 and c2 = z^2 - h^2: rewriting the outer level of
        # z^4 z2^2 first would carry the inner slot past its radix 6
        "tower_cap2": ProjBundle(wide, 2, (wide.one() + z3 + h3) * (wide.one() + z3 - h3),
                                 ((z3 + h3, 1), (z3 - h3, 1))),
    }


RINGS = _rings()
REWRITE_RINGS = ["bundle", "corrupted", "line", "line_tower", "tower", "tower_cap2"]


def monomials_up_to(ambient, degree):
    """Every exponent tuple of total degree <= degree, over-cap ones included."""
    return [m for m in product(range(degree + 1), repeat=len(ambient.generators))
            if sum(m) <= degree]


def random_class(rng_draw, ambient, unit=None):
    caps = [g.cap for g in ambient.generators]
    coeffs = {}
    for _ in range(rng_draw(st.integers(0, 6))):
        mono = tuple(rng_draw(st.integers(0, cap)) for cap in caps)
        coeffs[mono] = rng_draw(st.integers(-7, 7))
    if unit is not None:
        coeffs[(0,) * len(caps)] = unit
    return ambient.from_coeffs(coeffs)


@st.composite
def ring_and_unit_class(draw):
    ambient = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    return random_class(draw, ambient, unit=draw(st.sampled_from([1, -1])))


@st.composite
def ring_and_classes(draw, names=tuple(sorted(RINGS))):
    ambient = RINGS[draw(st.sampled_from(names))]
    return random_class(draw, ambient), random_class(draw, ambient)


# -- references kept beside the kernels they check -------------------------------


def geometric_inverse(a):
    """u sum_k (-u (a - u))^k: the geometric series of the nilpotent part."""
    ambient = a.ambient
    unit = a.coeffs.get((0,) * len(ambient.generators), 0)
    higher = a - ambient.from_int(unit)
    result = power = ambient.one()
    for _ in range(ambient.dimension):
        power = power * higher.scale(-unit)
        result = result + power
    return result.scale(unit)


def double_loop_twist(chern, rank, ell):
    """c_k = sum_i C(rank-i, k-i) c_i ell^(k-i), one power per term."""
    ambient = chern.ambient
    out = ambient.zero()
    for k in range(rank + 1):
        for i in range(min(k, ambient.dimension) + 1):
            out = out + (chern.component(i) * ell ** (k - i)).scale(comb(rank - i, k - i))
    return out


def power_by_power_aluffi(a, l):
    """sum_j a^(j) (c(L)^(-1))^j with the inverse multiplied in j times."""
    inv = l.chern.inverse()
    out = a.ambient.zero()
    power = a.ambient.one()
    for j in range(a.ambient.dimension + 1):
        if j:
            power = power * inv
        out = out + a.component(j) * power
    return out


# -- properties ----------------------------------------------------------------


class TestGradedKernels:
    @given(ring_and_unit_class())
    @settings(max_examples=120, deadline=None)
    def test_inverse_is_two_sided(self, a):
        one = a.ambient.one()
        inv = a.inverse()
        assert a * inv == one
        assert inv * a == one

    @given(ring_and_unit_class())
    @settings(max_examples=120, deadline=None)
    def test_inverse_equals_geometric_series(self, a):
        assert a.inverse() == geometric_inverse(a)

    @given(ring_and_classes())
    @settings(max_examples=120, deadline=None)
    def test_components_sum_back(self, pair):
        a, _ = pair
        total = a.ambient.zero()
        for k in range(a.ambient.dimension + 1):
            assert a.component(k) == a.part(k, k)
            total = total + a.component(k)
        assert total == a

    @given(ring_and_classes())
    @settings(max_examples=120, deadline=None)
    def test_dual_is_a_graded_ring_automorphism(self, pair):
        a, b = pair
        assert a.dual().dual() == a
        assert (a * b).dual() == a.dual() * b.dual()
        for k in range(a.ambient.dimension + 1):
            assert a.dual().component(k) == a.component(k).scale(-1 if k % 2 else 1)

    @given(ring_and_classes(), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_twist_matches_double_loop(self, pair, rank):
        a, b = pair
        # raw data: the twist takes any class, valid Chern class or not
        ell = b.component(1)
        assert twist_chern(a, rank, ell) == double_loop_twist(a, rank, ell)

    @given(ring_and_classes(), st.integers(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_aluffi_twist_matches_power_by_power(self, pair, d):
        a, b = pair
        ambient = a.ambient
        ell = b.component(1) + ambient.gen(0).scale(d)
        l = BundleClass(ambient, 1, ambient.one() + ell)
        assert line_twist(a, l.c1(), 0) == power_by_power_aluffi(a, l)

    @given(ring_and_classes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_line_twist_inverts_by_minus_ell(self, pair, data):
        a, b = pair
        s = data.draw(st.integers(-3, a.ambient.dimension + 2))
        ell = b.component(1)
        assert line_twist(line_twist(a, ell, s), -ell, s) == a

    def test_line_twist_rejects_ell_outside_codimension_1(self):
        # h (1 + h + h^2)^3 on P^4 has 7 h^4; the twist used to return 6 h^4,
        # since the powers of h + h^2 do not come in ascending key order
        p4 = ProjSpace(4)
        h = p4.gen(0)
        for ell in (h + h * h, p4.one() + h, h * h):
            with pytest.raises(ValueError, match="needs a class of codimension 1"):
                line_twist(h, ell, 4)

    @given(ring_and_classes(("P2xP1xP1", "bundle", "tower")))
    @settings(max_examples=60, deadline=None)
    def test_le_to_milnor_matches_naive_conversion(self, pair):
        # a product ring and bundle rings; test_lecycles covers P^n
        a, b = pair
        ambient = a.ambient
        n = ambient.dimension
        l = BundleClass(ambient, 1, ambient.one() + b.component(1))
        m = le_to_milnor(a, l)
        for k in range(n + 1):
            assert m.component(n - k) == naive_conversion(a, l, k)

    def test_tensor_line_is_the_validated_twist(self):
        p2 = ProjSpace(2)
        e = _split(p2, [1, 2])
        assert tensor_line(e, line_bundle(p2, 1)).chern == twist_chern(
            e.chern, 2, p2.gen(0))


# -- external oracle -------------------------------------------------------------


def _symbols_and_ideal(sympy, ambient):
    """sympy generators (outermost bundle level first) and the defining ideal."""
    if isinstance(ambient, ProjBundle):
        inner, ideal = _symbols_and_ideal(sympy, ambient.base)
        z = sympy.Symbol(ambient.gen_names[-1])
        r = ambient.rank
        rel = z ** r
        for i in range(1, r + 1):
            c_i = sum((c * _monomial(inner, m) for m, c in ambient.chern.coeffs.items()
                       if sum(m) == i), sympy.Integer(0))
            sign = (-1) ** i * (-1 if i == 1 and isinstance(ambient, CorruptedBundle) else 1)
            rel += sign * c_i * z ** (r - i)
        return [z] + inner, ideal + [sympy.expand(rel)]
    syms = [sympy.Symbol(g.name) for g in reversed(ambient.generators)]
    caps = [g.cap for g in reversed(ambient.generators)]
    return syms, [s ** (cap + 1) for s, cap in zip(syms, caps)]


def _monomial(syms, mono):
    # syms run outermost first, monomials innermost first
    out = 1
    for s, e in zip(reversed(syms), mono):
        out *= s ** e
    return out


class _Oracle:
    def __init__(self, sympy, ambient):
        self.sympy = sympy
        self.ambient = ambient
        self.syms, ideal = _symbols_and_ideal(sympy, ambient)
        self.basis = sympy.groebner(ideal, *self.syms, order="lex")

    def poly(self, a):
        return sum((c * _monomial(self.syms, m) for m, c in a.coeffs.items()),
                   self.sympy.Integer(0))

    def normal_form(self, expr):
        return self.sympy.expand(self.basis.reduce(self.sympy.expand(expr))[1])


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@pytest.fixture(scope="module", params=sorted(RINGS))
def oracle(request, sympy):
    return _Oracle(sympy, RINGS[request.param])


def _sample(rng, ambient, unit=None, terms=5):
    caps = [g.cap for g in ambient.generators]
    coeffs = {tuple(rng.randint(0, cap) for cap in caps): rng.randint(-9, 9)
              for _ in range(terms)}
    if unit is not None:
        coeffs[(0,) * len(caps)] = unit
    return ambient.from_coeffs(coeffs)


class TestSympyOracle:
    def test_multiply(self, oracle):
        rng = random.Random(11)
        for _ in range(12):
            a, b = _sample(rng, oracle.ambient), _sample(rng, oracle.ambient)
            want = oracle.normal_form(oracle.poly(a) * oracle.poly(b))
            assert oracle.sympy.expand(oracle.poly(a * b) - want) == 0

    def test_inverse(self, oracle):
        rng = random.Random(12)
        for _ in range(8):
            a = _sample(rng, oracle.ambient, unit=rng.choice([1, -1]))
            product = oracle.normal_form(oracle.poly(a) * oracle.poly(a.inverse()))
            assert product == 1

    def test_relation_reduction(self, oracle):
        # every monomial of degree <= dim + 2, then random ones up to twice
        # the caps, reduced through from_coeffs
        ambient = oracle.ambient
        rng = random.Random(13)
        caps = [g.cap for g in ambient.generators]
        monos = monomials_up_to(ambient, ambient.dimension + 2)
        monos += [tuple(rng.randint(0, 2 * cap + 1) for cap in caps) for _ in range(25)]
        for mono in monos:
            got = ambient.from_coeffs({mono: 1})
            want = oracle.normal_form(_monomial(oracle.syms, mono))
            assert oracle.sympy.expand(oracle.poly(got) - want) == 0

    def test_cap_saturated_products(self, oracle):
        # monomials whose exponents are 0 or at the cap give the largest slot
        # sums of the integer keys, which must not carry; top_monomial^2
        # and z^(r-1) z^(r-1) are among their products
        ambient = oracle.ambient
        saturated = [ambient.from_coeffs({mono: 1}) for mono in
                     product(*((0, g.cap) for g in ambient.generators))]
        for i, a in enumerate(saturated):
            for b in saturated[i:]:
                want = oracle.normal_form(oracle.poly(a) * oracle.poly(b))
                assert oracle.sympy.expand(oracle.poly(a * b) - want) == 0

    def test_divide(self, oracle):
        # x dense over several codimensions: divide is the one graded
        # division, which inverse and times_chern both call
        ambient = oracle.ambient
        rng = random.Random(16)
        for times in (1, 2, 3):
            for _ in range(3):
                a = _sample(rng, ambient)
                x = _sample(rng, ambient, unit=0, terms=8)
                got = oracle.poly(divide(a, x, times))
                undone = oracle.normal_form(got * (1 + oracle.poly(x)) ** times)
                assert oracle.sympy.expand(undone - oracle.poly(a)) == 0

    @pytest.mark.parametrize("name", REWRITE_RINGS)
    def test_parse_reduces_rewrite_generators(self, sympy, name):
        oracle = _Oracle(sympy, RINGS[name])
        ambient = oracle.ambient
        z = ambient.gen_names[-1]
        got = parse_class(ambient, f"{z}^{ambient.rank + 1}")
        mono = (0,) * (len(ambient.generators) - 1) + (ambient.rank + 1,)
        want = oracle.normal_form(_monomial(oracle.syms, mono))
        assert oracle.sympy.expand(oracle.poly(got) - want) == 0


# -- Chern-root kernel ------------------------------------------------------------


def expanded_product(a, roots):
    """a prod (1 + ell)^m, each factor expanded and inverted through CycleClass.inverse."""
    one = a.ambient.one()
    for ell, m in roots:
        factor = one + ell
        a = a * (factor ** m if m >= 0 else factor.inverse() ** -m)
    return a


def _random_roots(rng, ambient):
    """Random codimension-1 roots, zero roots and negative multiplicities included.

    A multiple of one generator with a multiplicity past the dimension
    takes the binomial-series branch when the generator truncates; a
    repeated class checks that multiplicities merge.
    """
    roots = [(_sample(rng, ambient).component(1), rng.randint(-3, 3))
             for _ in range(rng.randint(1, 3))]
    j = rng.randrange(len(ambient.generators))
    big = rng.choice([-1, 1]) * (ambient.dimension + rng.randint(0, 2))
    roots += [(ambient.gen(j).scale(rng.choice([1, 2, -1])), big),
              (ambient.zero(), rng.randint(-2, 2)),
              (roots[0][0], rng.randint(-2, 2))]
    return roots


class TestTimesChern:
    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_equals_expanded_inverse(self, name):
        ambient = RINGS[name]
        rng = random.Random(21)
        for _ in range(12):
            a = _sample(rng, ambient, unit=rng.choice([None, 1]))
            roots = _random_roots(rng, ambient)
            assert times_chern(a, roots) == expanded_product(a, roots)

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_opposite_roots_undo(self, name):
        ambient = RINGS[name]
        rng = random.Random(22)
        for _ in range(12):
            a = _sample(rng, ambient)
            roots = _random_roots(rng, ambient)
            there = times_chern(a, roots)
            assert _within_caps(there)
            assert times_chern(there, [(ell, -m) for ell, m in roots]) == a

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_one_generator_every_multiplicity(self, name):
        # 2 g to every power from -(cap + 2) to cap + 2: for a truncate
        # generator g, a division switches from the recurrence to the
        # binomial series once -m passes the cap
        ambient = RINGS[name]
        rng = random.Random(24)
        a = _sample(rng, ambient)
        for j, gen in enumerate(ambient.generators):
            ell = ambient.gen(j).scale(2)
            for m in range(-gen.cap - 2, gen.cap + 3):
                assert times_chern(a, [(ell, m)]) == expanded_product(a, [(ell, m)])

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_rootless_factor_is_expanded(self, name):
        # a factor 1 + x with x not of codimension 1 stands for c(E) of a
        # bundle without roots and goes through the same product and
        # division as a root; a single monomial of codimension 2 (h^2,
        # h1 h2, h z, z^2) must not take the binomial series of one generator
        ambient = RINGS[name]
        rng = random.Random(23)
        first, last = ambient.gen(0), ambient.gen(len(ambient.generators) - 1)
        cases = [(_sample(rng, ambient),
                  _sample(rng, ambient, unit=0) + _sample(rng, ambient, unit=0) ** 2)
                 for _ in range(6)]
        cases += [(_sample(rng, ambient), x) for x in (
            first * first, first * ambient.gen(1 % len(ambient.generators)),
            first * last, last * last)]
        for a, x in cases:
            for m in (-2, -1, 1, 2):
                assert times_chern(a, [(x, m)]) == expanded_product(a, [(x, m)])

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_tangent_roots_give_tangent_chern(self, name):
        ambient = RINGS[name]
        roots = ambient.tangent_roots
        assert roots is not None
        assert sum(m for _, m in roots) == ambient.dimension
        assert any(m < 0 and not ell for ell, m in roots)  # the trivial summands
        assert times_chern(ambient.one(), roots) == expanded_product(ambient.one(), roots)
        assert times_chern(ambient.one(), roots) == ambient.tangent_chern


# -- normal-form memo --------------------------------------------------------------


class TestNormalFormMemo:
    """Each ring keeps the normal forms it has computed; state must not leak."""

    @pytest.mark.parametrize("name", REWRITE_RINGS)
    def test_fresh_and_warm_rings_agree(self, name):
        warm = _rings()[name]
        monos = monomials_up_to(warm, warm.dimension + 2)
        listed = set(monos)
        others = [m for m in product(*(range(2 * g.cap + 2) for g in warm.generators))
                  if m not in listed]
        random.Random(14).shuffle(others)
        for mono in others:
            warm.from_coeffs({mono: 1})
        for mono in monos:
            fresh = _rings()[name]
            assert fresh.from_coeffs({mono: 1}).coeffs == warm.from_coeffs({mono: 1}).coeffs
        fresh = _rings()[name]
        weights = {mono: k + 1 for k, mono in enumerate(monos)}
        assert fresh.from_coeffs(weights).coeffs == warm.from_coeffs(weights).coeffs

    def test_corrupted_and_true_ring_in_turn(self):
        p2 = ProjSpace(2)
        chern = _split(p2, [1, 2, -1]).chern
        true, bad = ProjBundle(p2, 3, chern), CorruptedBundle(p2, 3, chern)
        differ = 0
        for mono in monomials_up_to(true, true.dimension + 2):
            got_true = true.from_coeffs({mono: 1})
            got_bad = bad.from_coeffs({mono: 1})
            assert got_true.coeffs == ProjBundle(p2, 3, chern).from_coeffs({mono: 1}).coeffs
            assert got_bad.coeffs == CorruptedBundle(p2, 3, chern).from_coeffs({mono: 1}).coeffs
            differ += got_true.coeffs != got_bad.coeffs
        assert differ
        assert (true.zeta() ** 3).coeffs != (bad.zeta() ** 3).coeffs
        assert verify_tangent_identities(true).ok
        assert not verify_tangent_identities(bad).ok
        assert grothendieck_residual(true).is_zero()
        assert not grothendieck_residual(bad).is_zero()

    def test_z_power_closed_form(self):
        # on P(O(1)+O(1)) over P^n the relation is (z - h)^2 = 0, so
        # z^N = N h^(N-1) z - (N-1) h^N, and z^N = 0 past the dimension n + 1;
        # z^999 comes first, on a cold ring
        for n, powers in ((40, range(2, 44)), (1000, (999, 2, 3, 30, 500, 1000, 1001, 1002))):
            base = ProjSpace(n)
            ring = make_bundle_ring(base, _split(base, [1, 1]))
            for N in powers:
                want = {}
                if N - 1 <= n:
                    want[(N - 1, 1)] = N
                if N <= n:
                    want[(N, 0)] = 1 - N
                assert parse_class(ring, f"z^{N}").coeffs == want

    def test_far_exponent_recursion_depth(self, monkeypatch):
        # z^999 is past the key radix 4 of z on P(O(1)+O(1)) over P^1000, so
        # from_coeffs builds it from halves, nesting at most log2(999) deep
        base = ProjSpace(1000)
        ring = make_bundle_ring(base, _split(base, [1, 1]))
        depth = deepest = 0
        from_coeffs = ProjBundle.from_coeffs

        def nesting(self, coeffs):
            nonlocal depth, deepest
            depth += 1
            deepest = max(deepest, depth)
            try:
                return from_coeffs(self, coeffs)
            finally:
                depth -= 1

        monkeypatch.setattr(ProjBundle, "from_coeffs", nesting)
        assert parse_class(ring, "z^999").coeffs == {(998, 1): 999, (999, 0): -998}
        assert 1 < deepest <= 1 + log2(999)


# -- normal-form invariant -----------------------------------------------------------


def _within_caps(a):
    caps = a.ambient.top_monomial
    return all(all(e <= cap for e, cap in zip(mono, caps)) for mono in a.coeffs)


class TestNormalFormInvariant:
    """Every constructor keeps each exponent within its cap.

    The product kernel sums integer keys with base 2 cap + 2 per exponent,
    which is exact only on normal-form operands.
    """

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_constructors_stay_within_caps(self, name):
        ambient = RINGS[name]
        rng = random.Random(15)
        ceiling = [2 * g.cap + 1 for g in ambient.generators]
        for _ in range(20):
            raw = {tuple(rng.randint(0, e) for e in ceiling): rng.randint(-9, 9)
                   for _ in range(6)}
            a = ambient.from_coeffs(raw)
            b = _sample(rng, ambient)
            ell = b.component(1)
            made = [a, a.dual(), a * b, line_twist(a, ell, rng.randint(-3, 3)),
                    _sample(rng, ambient, unit=1).inverse()]
            made += [a.component(k) for k in range(ambient.dimension + 1)]
            if isinstance(ambient, ProjBundle):
                made.append(ambient.pullback(_sample(rng, ambient.base)))
            for c in made:
                assert _within_caps(c)

    @pytest.mark.parametrize("name", REWRITE_RINGS)
    def test_bundle_classes_stay_within_caps(self, name):
        ring = RINGS[name]
        assert _within_caps(grothendieck_residual(ring))
        assert _within_caps(ring.sub_chern)
        assert _within_caps(ring.relative_tangent_chern)
