"""Classes stored by integer keys, against references on exponent tuples.

`CycleClass.terms` maps monomial keys to coefficients in ascending key
order, and every other view of a class is decoded from it.  These checks
run on every test ring of test_graded_kernels (rank-1 levels, the
two-level towers and the negative-control ring included), each with a
seeded stream of random classes:

* `from_coeffs(a.coeffs) == a`, and a key decodes to its monomial;
* `terms` is in ascending key order after every constructor, sums of
  classes with interleaved keys included;
* `part(lo, hi)` is the filter lo <= sum(m) <= hi on exponent tuples;
* `pullback` is m -> m + (0,), and `pushforward` keeps m[:-1] where
  m[-1] == r - 1;
* `dual` flips the sign where sum(m) is odd, and `degree` reads the
  coefficient of the top monomial.
"""

import random
from itertools import product

import pytest

from milnor_classes.bundles import line_twist, times_chern
from milnor_classes.chow import ProjBundle, divide, parse_class
from test_graded_kernels import RINGS

SEEDS = range(3)
CLASSES_PER_SEED = 20


def _random_class(rng, ambient, terms=6):
    caps = [g.cap for g in ambient.generators]
    coeffs = {tuple(rng.randint(0, cap) for cap in caps): rng.randint(-7, 7)
              for _ in range(rng.randint(0, terms))}
    return ambient.from_coeffs(coeffs)


def _classes(ambient, seed):
    rng = random.Random(seed)
    return [_random_class(rng, ambient) for _ in range(CLASSES_PER_SEED)]


def _ascending(c):
    keys = list(c.terms)
    return keys == sorted(keys) and all(c.terms.values())


def _no_unit(a):
    return a - a.component(0)


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_coeffs_round_trip(name, seed):
    ambient = RINGS[name]
    for a in _classes(ambient, seed):
        assert ambient.from_coeffs(a.coeffs) == a
        for key in a.terms:
            assert ambient.key_of(ambient.monomial(key)) == key
    # every exponent tuple below the key radix, normal or not
    radix = [2 * g.cap + 2 for g in ambient.generators]
    for mono in product(*(range(r) for r in radix)):
        assert ambient.monomial(ambient.key_of(mono)) == mono


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_constructor_keeps_key_order(name, seed):
    ambient = RINGS[name]
    classes = _classes(ambient, seed)
    ell = ambient.gen(0)
    built = [ambient.zero(), ambient.one(), ambient.from_int(-3), ambient.point_class(),
             *(ambient.gen(i) for i in range(len(ambient.generators)))]
    for a, b in zip(classes, classes[1:] + classes[:1]):
        built += [a, a + b, b + a, a - b, a + a, -a, a.scale(-2), a * b, a.dual(),
                  a.part(1, 2), (ambient.one() + _no_unit(a)).inverse(),
                  divide(a, _no_unit(b), 2), line_twist(a, ell, 3),
                  times_chern(a, ((ell, 2), (ell.scale(2), -3))),
                  parse_class(ambient, a.render())]
        built += [a.component(k) for k in range(ambient.dimension + 1)]
        if isinstance(ambient, ProjBundle):
            built += [ambient.pushforward(a), ambient.pullback(ambient.pushforward(a))]
    for c in built:
        assert _ascending(c), c.terms


def _tuple_sum(x, y, sign):
    out = dict(x.coeffs)
    for m, c in y.coeffs.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def test_sums_with_interleaved_keys_are_sorted():
    # new keys below, between and above the left operand's keys, and one
    # below its top key after that key cancels
    ambient = RINGS["P2xP1xP1"]
    a = parse_class(ambient, "h1^2*h2 + h1*h3 + h2")
    for text in ("h1^2*h3 + h3", "h1*h2*h3 + 1", "h1^2*h2*h3 - h1*h3", "h1^2*h2*h3",
                 "-h1^2*h2 + h1*h2"):
        b = parse_class(ambient, text)
        for total, want in ((a + b, _tuple_sum(a, b, 1)), (b + a, _tuple_sum(b, a, 1)),
                            (a - b, _tuple_sum(a, b, -1))):
            assert _ascending(total)
            assert total.coeffs == want


@pytest.mark.parametrize("name", sorted(RINGS))
def test_part_is_the_degree_filter(name):
    ambient = RINGS[name]
    dim = ambient.dimension
    for a in _classes(ambient, 0):
        for lo in range(dim + 1):
            for hi in range(lo, dim + 2):
                want = {m: c for m, c in a.coeffs.items() if lo <= sum(m) <= hi}
                assert a.part(lo, hi).coeffs == want
            assert a.component(lo) == a.part(lo, lo)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_dual_and_degree(name):
    ambient = RINGS[name]
    for a in _classes(ambient, 1):
        assert a.dual().coeffs == {m: (-1) ** sum(m) * c for m, c in a.coeffs.items()}
        assert a.degree() == a.coeffs.get(ambient.top_monomial, 0)


@pytest.mark.parametrize("name", sorted(n for n, r in RINGS.items() if isinstance(r, ProjBundle)))
@pytest.mark.parametrize("seed", SEEDS)
def test_pullback_and_pushforward(name, seed):
    ring = RINGS[name]
    top = ring.rank - 1
    for x in _classes(ring.base, seed):
        assert ring.pullback(x).coeffs == {m + (0,): c for m, c in x.coeffs.items()}
    for y in _classes(ring, seed):
        assert ring.pushforward(y).coeffs == {m[:-1]: c for m, c in y.coeffs.items()
                                              if m[-1] == top}
