"""Per-layer microbenchmarks of the ring kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Multiply, inverse and the Aluffi line twist on three ring shapes: P^200
(one truncate generator, long dense classes), P^4 x P^4 x P^4 (several
truncate generators, many terms per codimension) and a two-level tower of
projective bundles (rewrite generators reduced through both relations).
Operands are total tangent classes, dense in every codimension.  Each
case checks its result once outside the timed calls.  The default
`pytest` run collects only `tests/`, so these run only when named.
"""

import pytest

from milnor_classes.bundles import (
    BundleClass,
    direct_sum,
    line_bundle,
    trivial_bundle,
)
from milnor_classes.charclass import aluffi_tensor
from milnor_classes.chow import MultiProj, ProjBundle, ProjSpace


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


def test_aluffi_tensor(benchmark, case):
    tangent, l = case
    twisted = benchmark(aluffi_tensor, tangent, l)
    assert twisted.component(0) == tangent.component(0)
