"""Record the outputs later runs are checked against.

    python3 perfbench/record_golden.py

Writes, under perfbench/golden/:
  fixtures/<name>.out     stdout of `milnor_classes compute <fixture>
                          --machine --no-timing --strict`
  fixtures/exit_codes.json  the exit code of each of those runs
  digests.json            per-op output digests of every generated
                          workload on the default seed

Run it only on a commit whose outputs are known to be right; the recorded
files define what "correct" means for every later run.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

# ops recorded per workload: more than one run of BENCHMARK.json's
# run_seconds reaches on the machine the benchmark was written on
RECORDED_OPS = {"verify_suite": 48, "projective_scale": 144, "bundle_towers": 480}


def main() -> int:
    run.import_program()
    workloads.OUT.mkdir(exist_ok=True)
    fixtures_dir = workloads.GOLDEN / "fixtures"
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name in workloads.fixture_names():
        out, code, _ = workloads.run_child(workloads.cli_argv(name),
                                           workloads.OUT / "stderr.txt")
        (fixtures_dir / f"{name}.out").write_bytes(out)
        codes[name] = code
    (fixtures_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")

    digests = {}
    for name, count in RECORDED_OPS.items():
        w = workloads.WORKLOADS[name](seed=workloads.DEFAULT_SEED)
        recorded = []
        for i in range(count):
            outcome, _ = run.run_op(w, i)
            if not outcome.ok:
                print(f"{name} op {i} fails its checks: {outcome.reason}", file=sys.stderr)
                return 1
            recorded.append(outcome.output_digest)
        digests[name] = recorded
        print(f"{name}: {count} ops recorded")
    (workloads.GOLDEN / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
