"""Scenario-file ingestion, report rendering, and the CLI surface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from milnor_classes import cli
from milnor_classes.chow import ProjSpace, parse_class
from milnor_classes.examples import list_examples, load_fixture
from milnor_classes.intersect import FORMULAS
from milnor_classes.scenario import (
    ROUTES,
    ScenarioError,
    load_scenario_file,
    parse_scenario,
    run_compute,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
LE_MEMBER = Path(__file__).resolve().parent / "scenarios" / "le_member_cap_plane_p3.json"
P1XP1 = {"kind": "multiproj", "dims": [1, 1]}


def run_cli(*argv, expect=0):
    result = subprocess.run(
        [sys.executable, "-m", "milnor_classes", *argv],
        capture_output=True, text=True)
    assert result.returncode == expect, result.stderr or result.stdout
    return result


def minimal_scenario(**overrides):
    data = {
        "ambient": {"kind": "proj", "n": 2},
        "hypersurfaces": [{
            "name": "cubic",
            "multidegree": [3],
            "strata": [
                {"name": "reg", "dim": 1, "milnor_fiber_chi": 1, "contained_in": []},
                {"name": "node", "dim": 0, "milnor_fiber_chi": 0,
                 "contained_in": ["reg"], "closure": "point"},
            ],
        }],
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal(self):
        sc = parse_scenario(minimal_scenario())
        assert sc.ambient == ProjSpace(2)
        assert sc.hypersurfaces[0].hyp is not None

    def test_unknown_stratum_name(self):
        data = minimal_scenario()
        data["hypersurfaces"][0]["strata"][1]["contained_in"] = ["nonsense"]
        with pytest.raises(ScenarioError, match="nonsense"):
            parse_scenario(data)

    def test_error_names_field(self):
        data = minimal_scenario()
        data["hypersurfaces"][0]["strata"][1]["contained_in"] = ["ghost"]
        with pytest.raises(ScenarioError, match=r"strata\[1\]"):
            parse_scenario(data)

    def test_missing_ambient(self):
        with pytest.raises(ScenarioError, match="ambient"):
            parse_scenario({"hypersurfaces": []})

    def test_bad_ambient_kind(self):
        with pytest.raises(ScenarioError, match="kind"):
            parse_scenario(minimal_scenario(ambient={"kind": "weighted", "n": 2}))

    def test_bad_multidegree_length(self):
        data = minimal_scenario()
        data["hypersurfaces"][0]["multidegree"] = [1, 2]
        with pytest.raises(ScenarioError, match="multidegree"):
            parse_scenario(data)

    def test_intersection_unknown_reference(self):
        data = minimal_scenario(intersection={"hypersurfaces": ["cubic", "ghost"]})
        with pytest.raises(ScenarioError, match="ghost"):
            parse_scenario(data)

    def test_hypersurface_needs_some_data(self):
        data = minimal_scenario()
        del data["hypersurfaces"][0]["strata"]
        with pytest.raises(ScenarioError, match="strata and/or le_cycles"):
            parse_scenario(data)

    def test_closure_codim_mismatch_caught(self):
        data = minimal_scenario()
        data["hypersurfaces"][0]["strata"][1]["closure"] = {"class": "h", "csm": "h"}
        with pytest.raises(ScenarioError, match="codimension"):
            parse_scenario(data)

    def test_containment_dimension_checked(self):
        data = minimal_scenario()
        data["hypersurfaces"][0]["strata"][1]["dim"] = 1
        with pytest.raises(ScenarioError, match="dimension"):
            parse_scenario(data)


class TestReports:
    def test_compute_report(self):
        report = run_compute(parse_scenario(minimal_scenario()))
        section = report.sections[0]
        assert section.results["milnor"] == "h^2"
        assert report.ok

    def test_determinism(self):
        sc_data = load_fixture("two_planes_cap_plane_p3")
        r1 = run_compute(parse_scenario(sc_data), with_timing=False)
        r2 = run_compute(parse_scenario(sc_data), with_timing=False)
        assert r1.to_text() == r2.to_text()
        assert r1.to_json() == r2.to_json()

    def test_machine_values_reparse(self):
        report = run_compute(parse_scenario(load_fixture("two_planes_cap_plane_p3")))
        doc = report.to_json_doc()
        ambient = ProjSpace(3)
        for section in doc["sections"]:
            for key, text in section["results"].items():
                if key == "chi":
                    int(text)
                else:
                    parsed = parse_class(ambient, text)
                    assert parsed.render() == text

    def test_formula_filter(self):
        sc = parse_scenario(load_fixture("two_planes_cap_plane_p3"))
        report = run_compute(sc, formulas={"thm41"})
        inter = next(s for s in report.sections if s.kind == "intersection")
        assert "thm41" in inter.results
        assert "cor12" not in inter.results

    def test_agreement_line_present(self):
        report = run_compute(parse_scenario(load_fixture("two_planes_cap_plane_p3")))
        assert "formulas-agree: yes" in report.to_text()

    def test_explicit_task_directives(self):
        data = load_fixture("two_planes_cap_plane_p3") | {
            "tasks": [{"compute": "hypersurfaces"}, {"verify": "agreement"}]}
        report = run_compute(parse_scenario(data))
        kinds = [s.kind for s in report.sections]
        assert kinds == ["hypersurface", "hypersurface", "intersection"]
        assert report.ok

    def test_unknown_task_rejected(self):
        data = minimal_scenario(tasks=[{"frobnicate": 1}])
        with pytest.raises(ScenarioError, match="task"):
            run_compute(parse_scenario(data))

    def test_multiproj_scenario_end_to_end(self):
        # a nodal curve of bidegree (2,1) on P^1 x P^1: the smooth member is
        # rational (chi 2), the node adds one
        data = {
            "ambient": {"kind": "multiproj", "dims": [1, 1]},
            "hypersurfaces": [{
                "name": "curve",
                "multidegree": [2, 1],
                "strata": [
                    {"name": "reg", "dim": 1, "milnor_fiber_chi": 1,
                     "contained_in": []},
                    {"name": "node", "dim": 0, "milnor_fiber_chi": 0,
                     "contained_in": ["reg"], "closure": "point"},
                ],
                "oracle": {"chi": 3},
                "expected": {"milnor": "h1*h2", "chi": 3},
            }],
        }
        report = run_compute(parse_scenario(data))
        assert report.ok, report.to_text()


class TestFixtureFiles:
    def test_load_scenario_file(self):
        sc = load_scenario_file(FIXTURE_DIR / "nodal_cubic_p2.json")
        report = run_compute(sc)
        assert report.ok


class TestCli:
    def test_compute_text(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_scenario()))
        result = run_cli("compute", str(path), "--no-timing")
        assert "milnor: h^2" in result.stdout
        assert "summary: PASS" in result.stdout

    def test_compute_machine_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(load_fixture("quadric_cone_p3")))
        result = run_cli("compute", str(path), "--machine", "--no-timing")
        doc = json.loads(result.stdout)
        assert doc["ok"] is True
        hyp = doc["sections"][0]
        assert hyp["results"]["milnor"] == "h^3"
        assert hyp["results"]["chi"] == "3"

    def test_compute_determinism_bytes(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(load_fixture("two_planes_p3")))
        a = run_cli("compute", str(path), "--no-timing").stdout
        b = run_cli("compute", str(path), "--no-timing").stdout
        assert a == b

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        data = minimal_scenario()
        data["hypersurfaces"][0]["strata"][1]["contained_in"] = ["ghost"]
        path.write_text(json.dumps(data))
        result = run_cli("compute", str(path), expect=2)
        assert "ghost" in result.stderr
        assert "strata[1]" in result.stderr

    def test_expected_above_cap_exit_2(self, tmp_path):
        # "h^7" on P^2 used to be read as 0 and PASS against a zero class
        data = minimal_scenario()
        data["hypersurfaces"][0]["expected"] = {"milnor": "h^7"}
        path = tmp_path / "above_cap.json"
        path.write_text(json.dumps(data))
        result = run_cli("compute", str(path), expect=2)
        assert "hypersurfaces[0].expected.milnor" in result.stderr
        assert "h^7" in result.stderr
        assert "Traceback" not in result.stderr

    def test_intersection_expected_above_cap_exit_2(self, tmp_path):
        data = load_fixture("two_planes_cap_plane_p3")
        data["intersection"]["expected"]["milnor"] = "h^4"
        path = tmp_path / "above_cap.json"
        path.write_text(json.dumps(data))
        result = run_cli("compute", str(path), expect=2)
        assert "intersection.expected.milnor" in result.stderr

    @pytest.mark.parametrize("fieldpath,mutate", [
        ("hypersurfaces[0].strata[1].dim",
         lambda d: d["hypersurfaces"][0]["strata"][1].update(dim="x")),
        ("hypersurfaces[0].strata[1].closure.points",
         lambda d: d["hypersurfaces"][0]["strata"][1].update(closure={"points": "x"})),
        ("hypersurfaces[0].oracle.chi",
         lambda d: d["hypersurfaces"][0].update(oracle={"chi": "abc"})),
        ("hypersurfaces[0].expected.chi",
         lambda d: d["hypersurfaces"][0].update(expected={"chi": "abc"})),
        ("ambient.n", lambda d: d["ambient"].update(n=True)),
        ("hypersurfaces[0].le_cycles[-5]",
         lambda d: d["hypersurfaces"][0].update(le_cycles={"-5": "0"})),
    ], ids=["stratum-dim", "closure-points", "oracle-chi", "expected-chi",
            "bool-n", "negative-le-key"])
    def test_malformed_integer_exit_2(self, tmp_path, fieldpath, mutate):
        data = minimal_scenario()
        mutate(data)
        path = tmp_path / "bad_int.json"
        path.write_text(json.dumps(data))
        result = run_cli("compute", str(path), expect=2)
        assert fieldpath in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("k,text,message", [
        ("5", "0", "integer in 0..3"),
        ("1", "h^2 + h^3", "homogeneous of codimension 2"),
        ("0", "h^2", "homogeneous of codimension 3"),
        ("01", "0", "integer in 0..3"),
        ("9" * 5000, "h^2", "integer in 0..3"),
    ], ids=["key-above-dim", "inhomogeneous", "wrong-codimension", "leading-zero",
            "key-past-digit-limit"])
    def test_malformed_le_cycles_exit_2(self, tmp_path, k, text, message):
        data = load_fixture("two_planes_le_route_p3")
        data["hypersurfaces"][0]["le_cycles"] = {k: text}
        path = tmp_path / "bad_le.json"
        path.write_text(json.dumps(data))
        result = run_cli("compute", str(path), expect=2)
        assert f"hypersurfaces[0].le_cycles[{k}]: " in result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("ambient,multidegree", [
        (None, [0]), (None, [-3]), (P1XP1, [0, 0]), (P1XP1, [-1, 2]),
        ({"kind": "proj", "n": 0}, [3]), ({"kind": "multiproj", "dims": [1, 0]}, [0, 2]),
    ], ids=["zero", "negative", "zero-p1xp1", "negative-entry-p1xp1", "zero-class-p0",
            "zero-class-p1xp0"])
    def test_non_effective_multidegree_exit_2(self, tmp_path, ambient, multidegree):
        # O(0) and O(-3) have no hypersurface; the report used to PASS with
        # chi -17 or a zero virtual class.  On P^0 and on a P^0 factor a
        # nonzero entry can still give c1 = 0.
        if ambient is None:
            data = load_fixture("nodal_cubic_p2")
            data["hypersurfaces"][0]["multidegree"] = multidegree
            for key in ("expected", "oracle"):
                data["hypersurfaces"][0].pop(key, None)
        else:
            data = _smooth_member(ambient, multidegree)
        path = tmp_path / "bad_degree.json"
        path.write_text(json.dumps(data))
        result = run_cli("compute", str(path), expect=2)
        assert "hypersurfaces[0].multidegree: " in result.stderr
        assert "Traceback" not in result.stderr

    def test_partly_zero_multidegree_accepted(self, tmp_path):
        # bidegree (1, 0) on P^1 x P^1 is a fibre {pt} x P^1: chi 2
        data = _smooth_member(P1XP1, [1, 0])
        data["hypersurfaces"][0]["expected"] = {"chi": 2, "milnor": "0"}
        path = tmp_path / "fibre.json"
        path.write_text(json.dumps(data))
        result = run_cli("compute", str(path), "--strict", "--no-timing")
        assert "summary: PASS" in result.stdout

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        run_cli("compute", str(path), expect=2)

    def test_deeply_nested_json_exit_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        result = run_cli("compute", str(path), expect=2)
        assert "Traceback" not in result.stderr

    def test_non_utf8_file_exit_2(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xe9"}')
        result = run_cli("compute", str(path), expect=2)
        assert "Traceback" not in result.stderr

    def test_strict_failure_exit_1(self, tmp_path):
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(load_fixture("gamma_corrupted_control_p3")))
        result = run_cli("compute", str(path), "--strict", "--no-timing", expect=1)
        assert "formulas-agree: no" in result.stdout

    def test_non_strict_returns_0_on_disagreement(self, tmp_path):
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(load_fixture("gamma_corrupted_control_p3")))
        run_cli("compute", str(path), "--no-timing", expect=0)

    def test_examples_listing(self):
        result = run_cli("examples")
        listed = result.stdout.split()
        for name in ("nodal_cubic_p2", "cuspidal_cubic_p2", "quadric_cone_p3",
                     "two_planes_p3", "two_planes_cap_plane_p3",
                     "quadric_cone_cap_plane_p3"):
            assert name in listed

    def test_examples_run(self):
        result = run_cli("examples", "--run", "quadric_cone_p3", "--no-timing")
        assert "milnor: h^3" in result.stdout
        assert "chi: 3" in result.stdout

    def test_examples_unknown_exit_2(self):
        result = run_cli("examples", "--run", "nope", expect=2)
        assert "nodal_cubic_p2" in result.stderr

    def test_verify_suite(self):
        result = run_cli("verify", "--suite", "ring", "--seed", "42")
        assert "ring.axioms: PASS" in result.stdout
        assert "verify: PASS" in result.stdout


def _smooth_member(ambient, multidegree):
    return {
        "ambient": ambient,
        "hypersurfaces": [{
            "name": "F", "multidegree": multidegree,
            "strata": [{"name": "reg", "dim": 1, "milnor_fiber_chi": 1, "contained_in": []}],
        }],
    }


def _set(path, value):
    """A mutation that sets the field at path (keys and list indices)."""
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _rename(path, new_key):
    """A mutation that renames the object key at the end of path."""
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[new_key] = data.pop(path[-1])
    return mutate


INPUT_ERRORS = [
    # id, fixture, mutation, field path named in the error
    ("multidegree-length", "general_case_p2",
     _set(("general_case", "bundle", "line_multidegrees", 0), [1, 1]),
     "general_case.bundle.line_multidegrees[0]"),
    ("no-line-multidegrees", "general_case_p2",
     _set(("general_case", "bundle", "line_multidegrees"), []), "general_case.bundle"),
    ("rank-0", "general_case_p2",
     _set(("general_case", "bundle"), {"rank": 0, "chern": "1"}), "general_case.bundle"),
    ("bundle-int", "general_case_p2", _set(("general_case", "bundle"), 5),
     "general_case.bundle"),
    ("one-hypersurface", "two_planes_cap_plane_p3",
     _set(("intersection", "hypersurfaces"), ["plane"]), "intersection.hypersurfaces"),
    ("intersection-int", "two_planes_cap_plane_p3",
     _set(("intersection", "hypersurfaces"), 3), "intersection.hypersurfaces"),
    ("intersection-string", "two_planes_cap_plane_p3",
     _set(("intersection", "hypersurfaces"), "plane"), "intersection.hypersurfaces"),
    ("intersection-expected-int", "two_planes_cap_plane_p3",
     _set(("intersection", "expected"), 3), "intersection.expected"),
    ("task-string", "two_planes_cap_plane_p3", _set(("tasks",), ["compute"]), "tasks[0]"),
    ("report-task", "two_planes_cap_plane_p3", _set(("tasks",), [{"report": "x"}]),
     "tasks[0]"),
    ("hypersurfaces-int", "nodal_cubic_p2", _set(("hypersurfaces",), 3), "hypersurfaces"),
    ("strata-int", "nodal_cubic_p2", _set(("hypersurfaces", 0, "strata"), 3),
     "hypersurfaces[0].strata"),
    ("oracle-int", "nodal_cubic_p2", _set(("hypersurfaces", 0, "oracle"), 3),
     "hypersurfaces[0].oracle"),
    ("expected-list", "nodal_cubic_p2", _set(("hypersurfaces", 0, "expected"), [1]),
     "hypersurfaces[0].expected"),
    ("contained-in-string", "nodal_cubic_p2",
     _set(("hypersurfaces", 0, "strata", 1, "contained_in"), "reg"),
     "hypersurfaces[0].strata[1].contained_in"),
    ("hypersurface-name-list", "nodal_cubic_p2", _set(("hypersurfaces", 0, "name"), [1]),
     "hypersurfaces[0].name"),
    ("stratum-name-int", "nodal_cubic_p2",
     _set(("hypersurfaces", 0, "strata", 1, "name"), 5), "hypersurfaces[0].strata[1].name"),
    ("contained-in-entry-int", "nodal_cubic_p2",
     _set(("hypersurfaces", 0, "strata", 1, "contained_in"), [1]),
     "hypersurfaces[0].strata[1].contained_in[0]"),
    ("intersection-repeated-name", "two_planes_cap_plane_p3",
     _set(("intersection", "hypersurfaces"), ["plane", "plane"]),
     "intersection.hypersurfaces[1]"),
    ("intersection-entry-list", "two_planes_cap_plane_p3",
     _set(("intersection", "hypersurfaces", 0), [1]), "intersection.hypersurfaces[0]"),
    ("nothing-to-compute", "nodal_cubic_p2", _set(("hypersurfaces",), []), "scenario"),
    ("expected-unknown-key", "nodal_cubic_p2",
     _set(("hypersurfaces", 0, "expected", "milnor "), "h^2"),
     "hypersurfaces[0].expected.milnor "),
    ("expected-mu-class-without-segre", "two_planes_le_route_p3",
     _set(("hypersurfaces", 0, "expected", "mu-class"), "h^2"),
     "hypersurfaces[0].expected.mu-class"),
    ("expected-milnor-le-without-le", "nodal_cubic_p2",
     _set(("hypersurfaces", 0, "expected", "milnor-le"), "h^2"),
     "hypersurfaces[0].expected.milnor-le"),
    # both used to be ignored: the first dropped the definition-identity
    # verdict, the second the expected value, and --strict exited 0
    ("oracle-unknown-key", "nodal_cubic_p2",
     _set(("hypersurfaces", 0, "oracle"), {"cms": "3*h^2 + 3*h"}), "hypersurfaces[0].oracle.cms"),
    ("intersection-expected-unknown-key", "two_planes_cap_plane_p3",
     _set(("intersection", "expected"), {"milnr": "5*h^3"}), "intersection.expected.milnr"),
    # unknown keys used to be ignored: a misspelled intersection block was
    # skipped and --strict exited 0
    ("top-level-unknown-key", "two_planes_cap_plane_p3",
     _rename(("intersection",), "intersecton"), "scenario.intersecton"),
    ("ambient-unknown-key", "nodal_cubic_p2", _set(("ambient", "m"), 3), "ambient.m"),
    ("ambient-dims-on-proj", "nodal_cubic_p2", _set(("ambient", "dims"), [2]), "ambient.dims"),
    ("base-unknown-key", "general_case_p2", _set(("general_case", "base", "dims"), [2]),
     "general_case.base.dims"),
    ("hypersurface-unknown-key", "nodal_cubic_p2",
     _rename(("hypersurfaces", 0, "oracle"), "oracel"), "hypersurfaces[0].oracel"),
    ("stratum-unknown-key", "nodal_cubic_p2",
     _rename(("hypersurfaces", 0, "strata", 1, "closure"), "closur"),
     "hypersurfaces[0].strata[1].closur"),
    ("closure-unknown-key", "two_planes_p3",
     _set(("hypersurfaces", 0, "strata", 1, "closure", "csm"), "h^2"),
     "hypersurfaces[0].strata[1].closure.csm"),
    ("sing-segre-unknown-key", "nodal_cubic_p2",
     _rename(("hypersurfaces", 0, "sing_segre", "arg"), "args"),
     "hypersurfaces[0].sing_segre.args"),
    ("intersection-unknown-key", "two_planes_cap_plane_p3",
     _rename(("intersection", "support"), "suport"), "intersection.suport"),
    ("general-case-unknown-key", "general_case_p2",
     _rename(("general_case", "expected"), "expect"), "general_case.expect"),
    ("bundle-unknown-key", "general_case_p2", _set(("general_case", "bundle", "rank"), 2),
     "general_case.bundle.rank"),
]


SMALL_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1))


def _fields(node):
    """(container, key) for every field and list entry below node."""
    out = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            out += _fields(value)
    return out


class TestExitCodeContract:
    """Exit 0 ok, 1 verification failure, 2 input error with a field path."""

    @pytest.mark.parametrize("fixture,mutate,fieldpath",
                             [case[1:] for case in INPUT_ERRORS],
                             ids=[case[0] for case in INPUT_ERRORS])
    def test_input_error_exit_2(self, tmp_path, capsys, fixture, mutate, fieldpath):
        data = load_fixture(fixture)
        mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        # in process: any exception escaping main fails the test
        assert cli.main(["compute", str(path), "--no-timing"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fieldpath}: ")

    @pytest.mark.parametrize("fixture,mutate,message", [
        ("general_case_p2", _set(("general_case", "bundle"), {"rank": 1, "chern": "1 + h + h^2"}),
         "general_case.bundle: Chern class has a nonzero part in codimension 2 > rank 1"),
        ("general_case_p2", _set(("general_case", "bundle"), {"rank": 1, "chern": "2 + h"}),
         "general_case.bundle: total Chern class must start with 1"),
        ("two_planes_p3", _set(("hypersurfaces", 0, "strata", 1, "closure"),
                               {"class": "h^2 + h^3", "csm": "h^2 + 2*h^3"}),
         "hypersurfaces[0].strata: two_planes: closure class of line has a part in "
         "codimension 3, expected pure codimension 2"),
    ], ids=["bundle-above-rank", "bundle-degree-0", "closure-codimension"])
    def test_graded_validation_exit_2(self, tmp_path, capsys, fixture, mutate, message):
        data = load_fixture(fixture)
        mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["compute", str(path), "--no-timing"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_coefficients_past_digit_limit_exit_0(self, tmp_path, capsys):
        # a product of two 4000-digit coefficients has 8000 digits, past
        # str(int)'s default limit of 4300; it used to exit 1 with a traceback
        big = "7" * 4000
        plane = {"multidegree": [1],
                 "strata": [{"name": "reg", "dim": 2, "milnor_fiber_chi": 1,
                             "contained_in": []}],
                 "oracle": {"csm": f"{big}*h + 3*h^2"}}
        data = {"ambient": {"kind": "proj", "n": 3},
                "hypersurfaces": [{"name": "a", **plane}, {"name": "b", **plane}],
                "intersection": {"hypersurfaces": ["a", "b"]}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        assert cli.main(["compute", str(path), "--machine", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        p3 = ProjSpace(3)
        csm = parse_class(p3, f"{big}*h + 3*h^2")
        product = csm * csm
        assert parse_class(p3, product.render()) == product
        values = [v for s in doc["sections"] for k, v in s["results"].items() if k != "chi"]
        assert any(len(v) > 8000 for v in values)
        for text in values:
            assert parse_class(p3, text).render() == text
        # an 8000-digit chi prints exactly
        data["hypersurfaces"][0]["oracle"]["csm"] = f"{big}{big}*h^3 + h"
        path.write_text(json.dumps(data))
        assert cli.main(["compute", str(path), "--machine", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sections"][0]["results"]["chi"] == big + big

    @pytest.mark.parametrize("key", ["mu-class", "milnor-aluffi"])
    def test_expected_aluffi_result_without_aluffi_exit_2(self, tmp_path, capsys, key):
        # only the aluffi route computes these; a --formula choice that skips
        # it would leave the expectation unchecked
        data = load_fixture("nodal_cubic_p2")
        data["hypersurfaces"][0]["expected"][key] = "h^2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = ["compute", str(path), "--no-timing", "--strict"]
        assert cli.main(argv + ["--formula", "thm41"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: hypersurfaces[0].expected.{key}: ")
        assert cli.main(argv + ["--formula", "thm41", "--formula", "aluffi"]) == 0
        assert cli.main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("le_only,formula,still_run", [
        (False, "aluffi", "thm41"),
        (True, "pp", "cor12"),
    ], ids=["aluffi-only", "pp-with-le-only-member"])
    def test_no_intersection_formula_exit_2(self, tmp_path, capsys, le_only, formula,
                                            still_run):
        # with no formula run, "formulas-agree: yes" would hold over nothing
        # and the support verdict would go unchecked
        data = load_fixture("two_planes_cap_plane_p3")
        if le_only:
            member = data["hypersurfaces"][0]
            del member["strata"]
            member["le_cycles"] = load_fixture("two_planes_le_route_p3")[
                "hypersurfaces"][0]["le_cycles"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = ["compute", str(path), "--no-timing", "--strict"]
        assert cli.main(argv + ["--formula", formula]) == 2
        assert capsys.readouterr().err.startswith("error: intersection: ")
        assert cli.main(argv + ["--formula", formula, "--formula", still_run]) == 0
        out = capsys.readouterr().out
        assert f"{still_run}: h^3" in out
        assert "verdict support: PASS" in out

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_fixture_never_raises(self, tmp_path, capsys, data):
        doc = load_fixture(data.draw(st.sampled_from(list_examples())))
        owner, key = data.draw(st.sampled_from(_fields(doc)))
        if data.draw(st.booleans()):
            del owner[key]
        else:
            # small values only: the ambient dimension has no size budget yet
            old_type = type(owner[key])
            owner[key] = data.draw(SMALL_VALUES.filter(lambda v: type(v) is not old_type))
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["compute", str(path), "--no-timing"]) in (0, 1, 2)
        capsys.readouterr()


class TestRunCompute:
    """The library entry point checks a formula selection itself."""

    def test_all_runs_every_formula(self):
        sc = parse_scenario(load_fixture("two_planes_cap_plane_p3"))
        section = run_compute(sc, {"all"}, with_timing=False).sections[-1]
        assert list(section.results) == EVERY_FORMULA + ["expected"]
        assert section.verdicts == {"formulas-agree": True, "support": True}

    def test_no_intersection_formula_raises(self):
        sc = parse_scenario(load_fixture("two_planes_cap_plane_p3"))
        with pytest.raises(ScenarioError, match="^intersection: "):
            run_compute(sc, {"aluffi"})

    def test_unknown_group_raises(self):
        # a misspelled group would otherwise drop the aluffi route and pass
        sc = parse_scenario(load_fixture("nodal_cubic_p2"))
        with pytest.raises(ScenarioError, match=r"^formula: .*\['aluffl'\]"):
            run_compute(sc, {"aluffl"})

    @pytest.mark.parametrize("formulas,skipped", [
        ((), True), (("all",), True), (("pp", "cor11"), True),
        (("thm41",), False), (("cor11", "cor12"), False),
    ])
    def test_skipped_note_needs_a_selected_pp_formula(self, formulas, skipped):
        # one member has Le data only, so the pp group cannot run
        report = run_compute(load_scenario_file(LE_MEMBER), set(formulas), with_timing=False)
        assert report.ok
        note = "per-stratum formulas skipped: Le-only hypersurface present"
        assert (note in report.sections[-1].notes) == skipped

    def test_le_only_member_report(self):
        # the Le-only member joins the class-level formulas as its class triple
        section = run_compute(load_scenario_file(LE_MEMBER), with_timing=False).sections[-1]
        assert section.title == "intersection two_planes + plane"
        assert section.results == {"thm41": "h^3", "cor11": "h^3", "cor12": "h^3",
                                   "expected": "h^3"}
        assert section.verdicts == {"formulas-agree": True, "support": True}
        assert section.notes == ["per-stratum formulas skipped: Le-only hypersurface present"]


TRIPLE = ["virt", "csm", "milnor", "chi"]
EVERY_FORMULA = ["thm41", "cor11", "cor12", "pp_ais", "pp_full"]
# --formula values -> the intersection formulas they run on
# two_planes_cap_plane_p3 (None: exit 2) and whether they run the aluffi route
SELECTIONS = [
    ((), EVERY_FORMULA, True),
    (("thm41",), ["thm41"], False),
    (("cor11",), ["cor11"], False),
    (("cor12",), ["cor12"], False),
    (("pp",), ["pp_ais", "pp_full"], False),
    (("aluffi",), None, True),
    (("all",), EVERY_FORMULA, True),
    (("pp", "aluffi"), ["pp_ais", "pp_full"], True),
    (("thm41", "aluffi"), ["thm41"], True),
]
SELECTION_IDS = ["+".join(s[0]) or "default" for s in SELECTIONS]


def _keys_run(tmp_path, capsys, data, selection):
    """(kind, result keys, verdict keys) of each section, or None on exit 2."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = ["compute", str(path), "--machine", "--no-timing", "--strict"]
    for formula in selection:
        argv += ["--formula", formula]
    code = cli.main(argv)
    out = capsys.readouterr().out
    if code == 2:
        return None
    assert code == 0
    return [(s["kind"], list(s["results"]), list(s["verdicts"]))
            for s in json.loads(out)["sections"]]


class TestFormulaSelection:
    """What each --formula choice runs, read from the route table."""

    @pytest.mark.parametrize("selection,formulas,_", SELECTIONS, ids=SELECTION_IDS)
    def test_intersection_fixture(self, tmp_path, capsys, selection, formulas, _):
        got = _keys_run(tmp_path, capsys, load_fixture("two_planes_cap_plane_p3"), selection)
        if formulas is None:
            assert got is None
            return
        assert got == [
            ("hypersurface", TRIPLE, ["definition-identity", "chi-oracle"]),
            ("hypersurface", TRIPLE, ["chi-oracle"]),
            ("intersection", formulas + ["expected"], ["formulas-agree", "support"]),
        ]

    @pytest.mark.parametrize("selection,_,aluffi", SELECTIONS, ids=SELECTION_IDS)
    def test_le_and_segre_data(self, tmp_path, capsys, selection, _, aluffi):
        # the Le route always runs; the aluffi route only when selected
        data = load_fixture("two_planes_le_route_p3")
        data["hypersurfaces"][0]["sing_segre"] = {"center": "linear", "arg": 1}
        results = TRIPLE + ["milnor-le"] + (["mu-class", "milnor-aluffi"] if aluffi else [])
        verdicts = (["definition-identity", "chi-oracle", "le-agrees"]
                    + (["aluffi-agrees"] if aluffi else [])
                    + ["expected-milnor", "expected-milnor-le"])
        assert _keys_run(tmp_path, capsys, data, selection) == [
            ("hypersurface", results, verdicts)]

    def test_every_formula_has_a_route(self):
        assert set(FORMULAS) <= set(ROUTES)
        assert all(ROUTES[name][0] is not None for name in FORMULAS)

    def test_choices_are_the_route_groups(self):
        assert cli.FORMULA_CHOICES == ("thm41", "cor11", "cor12", "pp", "aluffi", "all")
