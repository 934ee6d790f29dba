"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is imported from
the checkout's own `src/` and nothing is installed.  One client runs ops in
a closed loop: the next op starts when the previous one has finished and
been checked.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes
over one fixed cycle of ops and reports the per-layer metrics.  The last
line of stdout is the result as one JSON object; the lines before it
restate every metric with its unit and context.  The exit code is 0 only
when every op was checked correct.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
TIME_LIMIT_S = 170


class BenchmarkTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise BenchmarkTimeout(f"run exceeded {TIME_LIMIT_S} s")


def import_program():
    """Import the checkout's milnor_classes, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import milnor_classes.cli  # noqa: F401

    where = Path(sys.modules["milnor_classes"].__file__).resolve()
    if SRC not in where.parents:
        raise RuntimeError(f"milnor_classes was imported from {where}, not {SRC}")


# -- set-up ------------------------------------------------------------------


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import the CLI and make the inputs.

    One unmeasured probe first fills the bytecode cache, as any earlier use
    of the checkout would.  Returns (set-up seconds, import seconds), one
    entry per measured probe.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    setups, imports = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=workloads.program_env(),
                              capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.decode()[-2000:])
        if k:
            setups.append(elapsed)
            imports.append(json.loads(proc.stdout)["import_s"])
    return setups, imports


# -- measured (untraced) run ---------------------------------------------------


class Tally:
    """Attempted, failed and checked ops of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.cases = 0
        self.reasons: list[str] = []

    def record(self, outcome: workloads.Outcome, latency: float) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        self.cases += outcome.cases
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(outcome.reason)


def run_op(w: workloads.Workload, i: int) -> tuple[workloads.Outcome, float]:
    """Make input i, time the program on it, check the output."""
    inp = w.make_input(i)
    start = time.perf_counter()
    try:
        result = w.execute(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        latency = time.perf_counter() - start
        return workloads.Outcome(False, 0, "", f"op {i} raised {exc!r}"), latency
    latency = time.perf_counter() - start
    return w.check(i, inp, result), latency


def measure(w: workloads.Workload, seconds: float) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        outcome, latency = run_op(w, i)
        tally.record(outcome, latency)
        i += 1
        if time.perf_counter() >= deadline:
            return tally


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it."""
    if n <= 10:
        return 100
    return math.floor(100 * (n - 10) / n)


def nearest_rank(n: int, pct: int) -> int:
    """1-based rank of the pct-th percentile of n sorted samples."""
    return max(1, math.ceil(pct / 100 * n))


def end_to_end(w: workloads.Workload, tally: Tally, setups: list[float]) -> dict:
    """The end-to-end metrics as name -> (value, unit, context)."""
    lat = sorted(tally.latencies)
    busy = sum(lat)
    done = tally.attempted - tally.failed
    pct = tail_percentile(len(lat))
    rank = nearest_rank(len(lat), pct)
    cli = isinstance(w, workloads.CliFixtures)
    rss_kib = w.peak_rss_kib if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh interpreters"),
        "throughput_ops_s": (done / busy, "1/s", f"{done} ops in {busy:.2f} s of op time"),
        "cases_per_s": (tally.cases / busy, "1/s", f"{tally.cases} checked cases"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms", f"{len(lat)} samples"),
        "latency_tail_ms": (lat[rank - 1] * 1000, "ms",
                            f"p{pct} of {len(lat)} samples, {len(lat) - rank} beyond"),
        "error_ratio": (tally.failed / tally.attempted, "ratio",
                        f"{tally.failed} of {tally.attempted} ops failed"),
        "peak_rss_mb": (rss_kib / 1024, "MB", "child process" if cli else "this process"),
    }


# -- traced run ------------------------------------------------------------------


def traced_run(w: workloads.Workload, seconds: float) -> tuple[Tally, dict, list[str]]:
    """Alternate untraced and traced passes over ops 0 .. cycle-1.

    Every pass starts from an empty `_inv_tangent_power` cache, so every
    pass does the same work: the counts of each traced pass must equal
    those of the first, and each traced output must equal the untraced
    output of the same op.
    """
    import spans

    from milnor_classes import intersect

    cache = intersect._inv_tangent_power
    ops = len(w.shapes)
    tracer = spans.Tracer()
    tally = Tally()
    self_total: dict[str, float] = {}
    first_counts: dict[str, int] | None = None
    untraced_s = traced_s = 0.0
    passes = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    workloads.OUT.mkdir(exist_ok=True)
    while passes == 0 or time.perf_counter() < deadline:
        cache.cache_clear()
        plain = []
        for i in range(ops):
            outcome, latency = run_op(w, i)
            tally.record(outcome, latency)
            untraced_s += latency
            plain.append(outcome.output_digest)
        cache.cache_clear()
        tracer.clear()
        if isinstance(w, workloads.CliFixtures):
            traced, self_s, counts, elapsed = _traced_cli_pass(w, ops, tally)
        else:
            restore = spans.install(tracer)
            try:
                traced = []
                elapsed = 0.0
                for i in range(ops):
                    tracer.current_op = i
                    outcome, latency = run_op(w, i)
                    tally.record(outcome, latency)
                    elapsed += latency
                    traced.append(outcome.output_digest)
            finally:
                restore()
            self_s, counts = tracer.summary()
            if passes == 0:
                tracer.dump(workloads.OUT / f"spans-{w.name}-{w.seed}.json")
        traced_s += elapsed
        if traced != plain:
            problems.append(f"pass {passes}: traced output differs from untraced output")
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            problems.append(f"pass {passes}: counts differ from the first traced pass")
        for k, v in self_s.items():
            self_total[k] = self_total.get(k, 0.0) + v
        passes += 1
    metrics = {}
    for name in spans.span_names():
        metrics[f"{name}_s"] = (self_total.get(name, 0.0) / (passes * ops), "s")
        metrics[f"{name}_calls"] = (first_counts.get(f"{name}_calls", 0), "count")
    for key in ("chow.term_products", "chow.peak_terms", "chow.ambient_eq_calls",
                "intersect.inv_tangent_misses"):
        metrics[key] = (first_counts.get(key, 0), "count")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    metrics["trace.passes"] = (passes, "count")
    return tally, metrics, problems


def _traced_cli_pass(w: workloads.CliFixtures, ops: int, tally: Tally):
    """One pass of fixtures, each child running the CLI under traced_cli.py."""
    outputs, self_s, counts = [], {}, {}
    elapsed = 0.0
    for i in range(ops):
        fixture = w.make_input(i)
        dump = workloads.OUT / f"spans-cli_fixtures-{fixture}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(dump)] + \
            workloads.cli_argv(fixture)[3:]
        start = time.perf_counter()
        out, code, _ = workloads.run_child(argv, workloads.OUT / "stderr.txt")
        latency = time.perf_counter() - start
        outcome = w.check(i, fixture, (out, code))
        tally.record(outcome, latency)
        elapsed += latency
        outputs.append(outcome.output_digest)
        doc = json.loads(dump.read_text())
        for k, v in doc["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in doc["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k == "chow.peak_terms" \
                else counts.get(k, 0) + v
    return outputs, self_s, counts, elapsed


# -- report ------------------------------------------------------------------------


def emit(tally: Tally, metrics: dict, problems: list[str], section: str) -> bool:
    """Print every metric, then the result line with the ones BENCHMARK.json lists."""
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note else ""
        print(f"{name:34s} {value:>16.6g} {unit}{extra}")
    for reason in tally.reasons + problems:
        print(f"FAILED: {reason}")
    correct = tally.failed == 0 and not problems
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]}
                    for k, v in metrics.items() if k in declared},
    }))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "milnor_classes" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        import_program()
        setups, imports = measure_setup(args.workload, args.seed)
        w = workloads.make_workload(args.workload, args.seed)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            tally, metrics, problems = traced_run(w, args.seconds)
            metrics["import.cli_s"] = (statistics.median(imports), "s")
        else:
            tally = measure(w, args.seconds)
            metrics, problems = end_to_end(w, tally, setups), []
    except BenchmarkTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    section = "per_layer" if args.trace else "end_to_end"
    return 0 if emit(tally, metrics, problems, section) else 1


if __name__ == "__main__":
    sys.exit(main())
