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
from milnor_classes.scenario import (
    ScenarioError,
    load_scenario_file,
    parse_scenario,
    run_compute,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
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
    ], ids=["key-above-dim", "inhomogeneous", "wrong-codimension"])
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

