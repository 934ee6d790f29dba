"""Per-layer microbenchmarks of the ring kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Multiply, inverse and the Aluffi line twist on four ring shapes: P^200
(one truncate generator, long dense classes), P^4 x P^4 x P^4 and
P^2 x P^2 x P^2 x P^2 (several truncate generators, many terms per
codimension) and a two-level tower of projective bundles (rewrite
generators reduced through both relations).  Operands are total tangent
classes, dense in every codimension.  The inverse is also timed on
c(TP^1000), three rounds of about a second each.  The Chern-root kernel
`times_chern` is timed through its two largest callers, the virtual class
of a hypersurface and c(TM)^(-1) (`_inv_tangent_power`), on P^1000 and on
P^15 x P^15 x P^15, each on a fresh ambient per round and checked against
the product with the expanded inverse.  A division by c(F) of the
tautological sub-bundle of the tower, whose bundles have no Chern roots,
times the expanded c(F) - 1 through the same recurrence.  The
other callers of the line-twist kernel, `twist_chern` (the cotangent
twist of the mu-class) and `milnor_to_le`, are timed on P^200.  The
normal-form cases reduce on a fresh ring per round, so each round pays
for every rewrite: `from_coeffs` of every monomial of top degree on the
tower, and `parse_class` of z^999 on P(O(1)+O(1)) over P^1000.  Each
case checks its result once outside the timed calls.  The default
`pytest` run collects only `tests/` and `perfbench/tests/`, so these run
only when named.
"""

from itertools import product
from math import comb

import pytest

from milnor_classes.bundles import (
    BundleClass,
    chern_roots,
    direct_sum,
    line_bundle,
    times_chern,
    trivial_bundle,
    twist_chern,
)
from milnor_classes.charclass import aluffi_tensor, virtual_class
from milnor_classes.chow import MultiProj, ProjBundle, ProjSpace, parse_class
from milnor_classes.intersect import _inv_tangent_power
from milnor_classes.lecycles import le_to_milnor, milnor_to_le
from milnor_classes.projbundle import taut_sub_chern


def _tower() -> ProjBundle:
    base = ProjSpace(3)
    e1 = trivial_bundle(base, 0)
    for d in (1, 2, 3):
        e1 = direct_sum(e1, line_bundle(base, d))
    level1 = ProjBundle(base, 3, e1.chern)
    h, z = level1.gen(0), level1.zeta()
    one = level1.one()
    chern2 = (one + h + z) * (one + h.scale(2) - z) * (one + z.scale(2))
    return ProjBundle(level1, 3, chern2)


def _case(ambient):
    tangent = ambient.tangent_chern
    ell = ambient.gen(0).scale(3)
    for i in range(1, len(ambient.generators)):
        ell = ell + ambient.gen(i)
    return tangent, BundleClass(ambient, 1, ambient.one() + ell)


CASES = {
    "P200": ProjSpace(200),
    "P4xP4xP4": MultiProj((4, 4, 4)),
    "P2xP2xP2xP2": MultiProj((2, 2, 2, 2)),
    "tower": _tower(),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return _case(CASES[request.param])


def test_multiply(benchmark, case):
    tangent, l = case
    product = benchmark(tangent.__mul__, l.chern)
    assert product * l.chern.inverse() == tangent


def test_inverse(benchmark, case):
    tangent, _ = case
    inv = benchmark(tangent.inverse)
    assert inv * tangent == tangent.ambient.one()


def test_square(benchmark, case):
    tangent, _ = case
    square = benchmark(tangent.__mul__, tangent)
    assert square == tangent ** 2


def test_inverse_p1000(benchmark):
    tangent = ProjSpace(1000).tangent_chern
    inv = benchmark.pedantic(tangent.inverse, rounds=3)
    # c(TP^n) = (1+h)^(n+1), so its inverse has coefficients (-1)^k C(n+k, k)
    assert all(inv.coeffs[(k,)] == (-1) ** k * comb(1000 + k, k) for k in range(1001))


ROOT_CASES = {"P1000": ((1000,), 3), "P15xP15xP15": ((15, 15, 15), (3, 1, 1))}


def _ambient(dims):
    return ProjSpace(dims[0]) if len(dims) == 1 else MultiProj(dims)


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_virtual_class_large(benchmark, name):
    dims, degree = ROOT_CASES[name]

    def fresh():
        ambient = _ambient(dims)
        l = line_bundle(ambient, degree)
        return (ambient, l, l.c1()), {}

    virt = benchmark.pedantic(virtual_class, setup=fresh, rounds=3)
    (ambient, l, x), _ = fresh()
    assert virt.ambient == ambient
    assert virt.coeffs == (ambient.tangent_chern * l.chern.inverse() * x).coeffs


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_inv_tangent_large(benchmark, name):
    dims, _ = ROOT_CASES[name]
    inv = benchmark.pedantic(_inv_tangent_power.__wrapped__,
                             setup=lambda: ((_ambient(dims), 1), {}), rounds=3)
    assert inv.coeffs == _ambient(dims).tangent_chern.inverse().coeffs


def test_times_chern_rootless(benchmark):
    ring = _tower()
    tangent, f = ring.tangent_chern, taut_sub_chern(ring)
    assert f.roots is None
    divided = benchmark(times_chern, tangent, chern_roots(f, -1))
    assert divided == tangent * f.chern.inverse()


def test_aluffi_tensor(benchmark, case):
    tangent, l = case
    twisted = benchmark(aluffi_tensor, tangent, l)
    assert twisted.component(0) == tangent.component(0)


def test_twist_chern(benchmark):
    tangent, l = _case(CASES["P200"])
    cotangent, ell = tangent.dual(), l.c1()
    twisted = benchmark(twist_chern, cotangent, 200, ell)
    assert twist_chern(twisted, 200, -ell) == cotangent


def test_milnor_to_le(benchmark):
    tangent, l = _case(CASES["P200"])
    le = benchmark(milnor_to_le, tangent, l)
    assert le_to_milnor(le, l) == tangent


def _fresh(make, *args):
    return lambda: ((make(), *args), {})


def test_normal_form_top_degree(benchmark):
    dim = _tower().dimension
    monos = [m for m in product(range(dim + 1), repeat=3) if sum(m) == dim]
    coeffs = {m: k + 1 for k, m in enumerate(monos)}
    reduced = benchmark.pedantic(ProjBundle.from_coeffs, setup=_fresh(_tower, coeffs),
                                 rounds=20)
    # every top-degree normal form is a multiple of the point class, and
    # so is the same sum built from generator powers by multiplication
    ring = _tower()
    gens = [ring.gen(i) for i in range(3)]
    total = ring.zero()
    for m, c in coeffs.items():
        total = total + (gens[0] ** m[0] * gens[1] ** m[1] * gens[2] ** m[2]).scale(c)
    assert set(reduced.coeffs) <= {ring.top_monomial}
    assert reduced.coeffs == total.coeffs


def _p1000_ring():
    base = ProjSpace(1000)
    return ProjBundle(base, 2, direct_sum(line_bundle(base, 1), line_bundle(base, 1)).chern)


def test_parse_high_z_power(benchmark):
    power = benchmark.pedantic(parse_class, setup=_fresh(_p1000_ring, "z^999"), rounds=10)
    # (z - h)^2 = 0 gives z^N = N h^(N-1) z - (N-1) h^N
    assert power.coeffs == {(998, 1): 999, (999, 0): -998}
