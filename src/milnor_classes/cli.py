"""Command-line interface.

Subcommands:
  compute <file>   run a scenario file and print its report
  verify           run the seeded property suites
  examples         list builtin fixtures or run one by name

Exit codes: 0 ok, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

from .scenario import ROUTES, ScenarioError, load_scenario_file, run_compute
from .verify import SUITES, run_verify

FORMULA_CHOICES = (*dict.fromkeys(g for g, _, _ in ROUTES.values() if g), "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milnor-classes",
        description=("Exact calculator for Milnor classes of singular "
                     "hypersurfaces and their transversal intersections"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run a scenario file")
    p_compute.add_argument("file", help="path to a JSON scenario file")
    p_compute.add_argument("--formula", action="append", choices=FORMULA_CHOICES,
                           help="restrict to the named formulas (repeatable)")
    p_compute.add_argument("--strict", action="store_true",
                           help="exit 1 when any verdict fails")
    p_compute.add_argument("--no-timing", action="store_true",
                           help="omit timing fields (byte-stable output)")
    p_compute.add_argument("--machine", action="store_true",
                           help="emit the JSON rendering instead of text")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--suite", default="all",
                          choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)

    p_examples = sub.add_parser("examples", help="builtin fixtures")
    p_examples.add_argument("--run", metavar="NAME",
                            help="run the named fixture")
    p_examples.add_argument("--machine", action="store_true",
                            help="emit the JSON rendering instead of text")
    p_examples.add_argument("--no-timing", action="store_true",
                            help="omit timing fields")
    return parser


def _emit(report, machine: bool) -> None:
    sys.stdout.write(report.to_json() if machine else report.to_text())


def cmd_compute(args) -> int:
    try:
        report = run_compute(load_scenario_file(args.file), formulas=set(args.formula or []),
                             with_timing=not args.no_timing)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.machine)
    if args.strict and not report.ok:
        return 1
    return 0


def cmd_verify(args) -> int:
    ok, summary = run_verify(args.suite, args.seed)
    print(summary)
    return 0 if ok else 1


def cmd_examples(args) -> int:
    from .examples import fixture_path, list_examples

    if args.run is None:
        for name in list_examples():
            print(name)
        return 0
    try:
        path = fixture_path(args.run)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    _emit(run_compute(load_scenario_file(path), with_timing=not args.no_timing), args.machine)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"compute": cmd_compute, "verify": cmd_verify,
                "examples": cmd_examples}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
