"""The tests' reader of the builtin fixtures.

The fixtures are the scenario files in the package's fixtures/ directory,
the one copy of them; `compute` and `examples --run` read the same files.
Every fixture records how its expected values were obtained (its
"derivation" text), so a failing test points at a checkable argument
rather than a bare number.

Euler characteristics the derivations use:
  smooth plane curve of degree d:  3d - d^2
  smooth surface of degree d in P^3:  d^3 - 4d^2 + 6d
  plane-curve singularity with Milnor number mu:  chi(fibre) = 1 - mu
"""

import json
from pathlib import Path

import milnor_classes

FIXTURE_DIR = Path(milnor_classes.__file__).parent / "fixtures"


def list_examples() -> list[str]:
    return sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))


def fixture_path(name: str) -> Path:
    names = list_examples()
    if name not in names:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(names)}")
    return FIXTURE_DIR / f"{name}.json"


def load_fixture(name: str) -> dict:
    """The parsed JSON of a builtin fixture; KeyError for an unknown name."""
    return json.loads(fixture_path(name).read_text())


def k_nodal_curve(d: int, k: int) -> dict:
    """A degree-d plane curve with k nodes.

    chi = (3d - d^2) + k: each node raises chi of the smooth model by one
    (the normalization map glues two points per node).  gamma of the node
    stratum is +1, so the Milnor class is k [pt] and its degree is the sum
    of the local Milnor numbers.
    """
    if d < 1 or k < 0:
        raise ValueError("need degree >= 1 and k >= 0")
    chi = (3 * d - d * d) + k
    strata = [{"name": "reg", "dim": 1, "milnor_fiber_chi": 1, "contained_in": []}]
    if k:
        strata.append({"name": "nodes", "dim": 0, "milnor_fiber_chi": 0,
                       "contained_in": ["reg"], "closure": {"points": k}})
    fixture = {
        "name": f"{k}_nodal_degree_{d}_curve_p2",
        "derivation": k_nodal_curve.__doc__.strip(),
        "ambient": {"kind": "proj", "n": 2},
        "hypersurfaces": [{
            "name": "curve",
            "multidegree": [d],
            "strata": strata,
            "oracle": {"chi": chi},
            "expected": {"milnor": f"{k}*h^2" if k else "0", "chi": chi},
        }],
    }
    if k:
        fixture["hypersurfaces"][0]["sing_segre"] = {"center": "points", "arg": k}
    return fixture
