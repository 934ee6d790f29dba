"""Every seeded property of `verify.SUITES`, on seeds 0, 1 and 2.

SUITES is the one statement of each randomized property (ring axioms,
bundle calculus, class identities, Le-cycle conversion, the intersection
formulas and the P(E^v) identities).  Other test files hold examples and
independent oracles; where they name a property, they run it through
run_property.
"""

import random

import pytest

from milnor_classes.verify import SUITES, run_suite


def run_property(suite, name):
    """Run one property of SUITES for its declared case count on its own stream."""
    prop, cases = next((p, c) for n, p, c in SUITES[suite] if n == name)
    rng = random.Random(f"{suite}.{name}")
    for _ in range(cases):
        prop(rng)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_properties(suite, seed):
    declared = {name: cases for name, _, cases in SUITES[suite]}
    results = run_suite(suite, seed)
    assert [r.name for r in results] == list(declared)
    for r in results:
        where = f"{suite}.{r.name} (seed {seed})"
        assert r.ok, f"{where}: {r.failure}"
        assert r.cases == declared[r.name], f"{where}: ran {r.cases} of {declared[r.name]} cases"
