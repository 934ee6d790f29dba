"""Scenario-file ingestion, report rendering, and the CLI surface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from milnor_classes.chow import ProjSpace, parse_class
from milnor_classes.examples import load_fixture
from milnor_classes.scenario import (
    ScenarioError,
    load_scenario_file,
    parse_scenario,
    run_compute,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


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
            "tasks": [{"compute": "hypersurfaces"}, {"verify": "agreement"},
                      {"report": "both"}]}
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

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        run_cli("compute", str(path), expect=2)

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
