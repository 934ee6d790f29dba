"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.import_program()


def test_oracle_reproduces_fixture_derivations():
    # two planes in P^3: CSM by inclusion-exclusion, Milnor class -h^2
    csm = oracle.two_planes_csm(3, [])
    assert oracle.render(csm) == "4*h^3 + 5*h^2 + 2*h"
    virt = oracle.complete_intersection(3, [2])
    assert oracle.render(oracle.milnor_from_definition(3, 1, virt, csm)) == "-h^2"
    # ... cut by a generic plane: M = h^3 (two_planes_cap_plane_p3)
    virt = oracle.complete_intersection(3, [2, 1])
    csm = oracle.two_planes_csm(3, [1])
    assert oracle.render(oracle.milnor_from_definition(3, 2, virt, csm)) == "h^3"
    # smooth cubic curve: virtual class 3h (nodal_cubic_p2)
    assert oracle.render(oracle.complete_intersection(2, [3])) == "3*h"


def test_bundle_degree():
    # the normal-form point class h^b z^(r-1) has degree 1
    assert oracle.bundle_degree(2, [1, 1], {(2, 1): 1}) == 1
    # z^r = c1(E) z^(r-1) - c2(E): on P^1 with E = O(1) + O(1), deg z^2 = 2
    assert oracle.bundle_degree(1, [1, 1], {(0, 2): 1}) == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (11, 20, 83, 100, 1000):
        assert n - run.nearest_rank(n, run.tail_percentile(n)) >= 10
    assert run.tail_percentile(100) == 90 and run.tail_percentile(1000) == 99


def _outputs(w, indices, tracer=None):
    digests = []
    restore = spans.install(tracer) if tracer else None
    try:
        for i in indices:
            outcome, _ = run.run_op(w, i)
            assert outcome.ok, outcome.reason
            digests.append(outcome.output_digest)
    finally:
        if restore:
            restore()
    return digests


def test_traced_and_untraced_outputs_are_identical():
    for name, indices in (("bundle_towers", range(4)), ("projective_scale", range(2)),
                          ("verify_suite", range(1))):
        w = workloads.make_workload(name, 5)
        plain = _outputs(w, indices)
        tracer = spans.Tracer()
        assert _outputs(w, indices, tracer) == plain
        assert len(tracer.start) > 0


def test_traced_cli_output_is_byte_identical():
    workloads.OUT.mkdir(exist_ok=True)
    fixture = "two_planes_cap_plane_p3"
    plain = workloads.run_child(workloads.cli_argv(fixture), workloads.OUT / "stderr.txt")
    dump = workloads.OUT / "test-spans.json"
    argv = [sys.executable, str(BENCH / "traced_cli.py"), str(dump)] + \
        workloads.cli_argv(fixture)[3:]
    traced = workloads.run_child(argv, workloads.OUT / "stderr.txt")
    assert traced[:2] == plain[:2]
    doc = json.loads(dump.read_text())
    assert doc["counts"]["intersect.thm41_calls"] == 1
    assert doc["counts"]["cli.main_calls"] == 1


def test_counts_repeat_for_the_same_seed():
    from milnor_classes.intersect import _inv_tangent_power

    counts = []
    for _ in range(2):
        w = workloads.make_workload("bundle_towers", 7)
        _inv_tangent_power.cache_clear()
        tracer = spans.Tracer()
        _outputs(w, range(6), tracer)
        counts.append(tracer.summary()[1])
    assert counts[0] == counts[1]
    assert counts[0]["chow.term_products"] > 0
    assert counts[0]["projbundle.milnor_general_calls"] > 0


def test_perturbed_golden_output_counts_as_failure():
    w = workloads.make_workload("cli_fixtures", 1)
    fixture = "gamma_corrupted_control_p3"
    out, code = w.expected[fixture]
    w.expected[fixture] = (out.replace(b'"ok": false', b'"ok": true'), code)
    tally = run.Tally()
    for i in range(len(w.shapes)):
        tally.record(*run.run_op(w, i))
    metrics = run.end_to_end(w, tally, [0.1])
    assert tally.failed == 1
    assert metrics["error_ratio"][0] > 0


def test_perturbed_digest_counts_as_failure():
    w = workloads.make_workload("bundle_towers", workloads.DEFAULT_SEED)
    assert w.golden, "default seed must be checked against recorded digests"
    assert run.run_op(w, 0)[0].ok
    w.golden = ["0" * 64] + w.golden[1:]
    assert not run.run_op(w, 0)[0].ok


def test_fails_without_program_sources():
    lonely = workloads.OUT / "lonely_checkout"
    shutil.rmtree(lonely, ignore_errors=True)
    lonely.mkdir(parents=True)
    shutil.copy(BENCH.parent / "BENCHMARK.json", lonely)
    shutil.copytree(BENCH, lonely / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=lonely, capture_output=True, text=True, timeout=120)
    shutil.rmtree(lonely)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
