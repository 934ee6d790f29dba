"""Builtin fixtures: expected values hold and cross-validation passes."""

from pathlib import Path

import pytest

from milnor_classes.cli import main
from milnor_classes.scenario import load_scenario_file, parse_scenario, run_compute

from fixture_data import FIXTURE_DIR, fixture_path, k_nodal_curve, list_examples, load_fixture

ROOT_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

REQUIRED = [
    "nodal_cubic_p2",
    "cuspidal_cubic_p2",
    "quadric_cone_p3",
    "two_planes_p3",
    "two_planes_cap_plane_p3",
    "quadric_cone_cap_plane_p3",
]


class TestCatalog:
    def test_required_names_present(self):
        names = list_examples()
        for name in REQUIRED:
            assert name in names

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            load_fixture("does_not_exist")

    def test_every_fixture_has_derivation(self):
        for name in list_examples():
            fixture = load_fixture(name)
            assert fixture.get("derivation"), f"{name} has no derivation text"


class TestSingleSource:
    """The package's fixture files are the only copy of the fixtures."""

    def test_catalog_is_the_shipped_files(self):
        assert list_examples() == sorted(p.stem for p in ROOT_FIXTURES.glob("*.json"))
        assert ROOT_FIXTURES.resolve() == FIXTURE_DIR.resolve()

    @pytest.mark.parametrize("name", list_examples())
    def test_examples_run_equals_compute_file(self, name, capsys):
        main(["examples", "--run", name, "--machine", "--no-timing"])
        via_examples = capsys.readouterr().out
        main(["compute", str(ROOT_FIXTURES / f"{name}.json"), "--machine", "--no-timing"])
        assert capsys.readouterr().out == via_examples

    def test_examples_run_times_unless_no_timing(self, capsys):
        main(["examples", "--run", "nodal_cubic_p2"])
        assert "\ntiming-ms: " in capsys.readouterr().out
        main(["examples", "--run", "nodal_cubic_p2", "--no-timing"])
        assert "timing-ms" not in capsys.readouterr().out

    def test_parametric_family_reproduces_its_file(self):
        assert k_nodal_curve(4, 3) == load_fixture("3_nodal_degree_4_curve_p2")


class TestFixtureRuns:
    @pytest.mark.parametrize("name", list_examples())
    def test_fixture_verdicts(self, name):
        fixture = load_fixture(name)
        report = run_compute(load_scenario_file(fixture_path(name)))
        if fixture.get("expect_fail"):
            assert not report.ok, report.to_text()
        else:
            assert report.ok, report.to_text()

    def test_isolated_degree_equals_milnor_sum(self):
        # one node = 1, one cusp = 2, one A1 threefold point = 1
        for name, total in [("nodal_cubic_p2", 1), ("cuspidal_cubic_p2", 2),
                            ("quadric_cone_p3", 1),
                            ("3_nodal_degree_4_curve_p2", 3)]:
            report = run_compute(load_scenario_file(fixture_path(name)))
            hyp = report.sections[0]
            from milnor_classes.chow import ProjSpace, parse_class
            fixture = load_fixture(name)
            n = fixture["ambient"]["n"]
            milnor = parse_class(ProjSpace(n), hyp.results["milnor"])
            assert milnor.degree() == total


class TestParametricFamily:
    @pytest.mark.parametrize("d,k", [(3, 1), (4, 3), (5, 0), (2, 1), (6, 4)])
    def test_k_nodal_curve(self, d, k):
        fixture = k_nodal_curve(d, k)
        report = run_compute(parse_scenario(fixture))
        assert report.ok, report.to_text()
        hyp = report.sections[0]
        assert hyp.results["chi"] == str((3 * d - d * d) + k)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            k_nodal_curve(0, 1)
        with pytest.raises(ValueError):
            k_nodal_curve(3, -1)
