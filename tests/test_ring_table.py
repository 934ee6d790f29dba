"""One ring per shape: the interned projective rings and their line bundles.

Equal `ProjSpace` and `MultiProj` rings are one object, with caches that
stay warm across ops, so these tests also check that nothing an op does
writes to the shared state, and that a warm process prints what a fresh
one prints.
"""

import copy
import pickle
import re
import subprocess
import sys

import pytest

from milnor_classes import chow
from milnor_classes.bundles import direct_sum, line_bundle
from milnor_classes.chow import MultiProj, ProjBundle, ProjSpace
from milnor_classes.verify import CorruptedBundle, run_verify


def test_equal_shapes_are_one_ring():
    assert ProjSpace(3) is ProjSpace(n=3)
    assert MultiProj([1, 1]) is MultiProj((1, 1))
    assert MultiProj(dims=iter([2, 1])) is MultiProj((2, 1))
    assert ProjSpace(1) is not MultiProj((1,))
    assert ProjSpace(1) != MultiProj((1,))
    # copies and pickles come back as the table's ring
    assert copy.deepcopy(ProjSpace(2)) is ProjSpace(2)
    assert pickle.loads(pickle.dumps(MultiProj((2, 1)))) is MultiProj((2, 1))


def test_bundle_rings_stay_distinct():
    base = ProjSpace(2)
    e = direct_sum(line_bundle(base, 1), line_bundle(base, 2))
    first, second = ProjBundle(base, 2, e.chern), ProjBundle(base, 2, e.chern)
    corrupted = CorruptedBundle(base, 2, e.chern)
    assert first is not second and first == second
    assert corrupted is not first and corrupted != first


@pytest.mark.parametrize("make, error", [
    (lambda: ProjSpace(-1), ValueError),
    (lambda: ProjSpace(2.0), TypeError),
    (lambda: ProjSpace(True), TypeError),
    (lambda: ProjSpace("3"), TypeError),
    (lambda: MultiProj((1.7, 2)), TypeError),
    (lambda: MultiProj(("3",)), TypeError),
    (lambda: MultiProj((1, False)), TypeError),
    (lambda: MultiProj(()), ValueError),
    (lambda: MultiProj((2, -1)), ValueError),
])
def test_failed_construction_registers_nothing(make, error):
    p2 = ProjSpace(2)
    before = dict(chow._RINGS)
    with pytest.raises(error):
        make()
    assert chow._RINGS == before
    assert ProjSpace(2) is p2 and type(p2.n) is int and p2.n == 2


def test_rings_are_immutable():
    with pytest.raises(AttributeError):
        ProjSpace(2).dims = (3,)
    assert ProjSpace(2).dimension == 2


def test_line_bundle_shares_its_classes():
    p2 = ProjSpace(2)
    first, second = line_bundle(p2, 3), line_bundle(p2, (3,))
    assert first == second
    assert first.chern is second.chern and first.roots is second.roots
    o11 = MultiProj((1, 1))
    assert line_bundle(o11, [1, 2]).chern is line_bundle(o11, (1, 2)).chern
    assert line_bundle(o11, (1, 2)).chern.render() == "h1 + 2*h2 + 1"


def test_line_bundle_errors_repeat():
    p2 = ProjSpace(2)
    line_bundle(p2, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="2 entries"):
            line_bundle(p2, (1, 2))
        with pytest.raises(TypeError, match="exact integers"):
            line_bundle(p2, (2.0,))


def _snapshot(classes):
    return [dict(c.terms) for c in classes]


def test_verify_pass_leaves_shared_classes_unchanged():
    p3 = ProjSpace(3)
    bundle = line_bundle(p3, 2)
    tangent, gens = p3.tangent_chern, [p3.gen(0)]
    watched = [tangent, *gens, bundle.chern, bundle.c1()]
    before = _snapshot(watched)
    ok, _ = run_verify("all", 1)
    assert ok
    assert p3.tangent_chern is tangent and p3.gen(0) is gens[0]
    assert line_bundle(p3, 2).chern is bundle.chern
    assert _snapshot(watched) == before
    assert tangent.coeffs == {(0,): 1, (1,): 4, (2,): 6, (3,): 4}  # (1 + h)^4


def _verify_summaries(code: str) -> list[str]:
    """The summaries a fresh interpreter prints, blank-line separated, times stripped."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=300).stdout
    return re.sub(r", \d+\.\d+s\)", ")", out).strip().split("\n\n")


def test_verify_summaries_do_not_depend_on_warm_rings():
    show = "from milnor_classes.verify import run_verify\n"
    fresh = [_verify_summaries(show + f"print(run_verify('all', {s})[1])")[0]
             for s in range(4)]
    # seed 4 first, then 0..3: each seed runs on rings that earlier seeds built
    warm = _verify_summaries(show + "run_verify('all', 4)\n"
                             "print('\\n\\n'.join(run_verify('all', s)[1] for s in range(4)))")
    assert warm == fresh
    assert all(text.endswith(f"verify: PASS (seed {s})") for s, text in enumerate(fresh))
