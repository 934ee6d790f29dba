"""Every fixture's `compute --machine --no-timing --strict` output is frozen.

The recorded stdout and exit code of each fixture live in
perfbench/golden/fixtures/, which the benchmark checks every run against;
this test reads them only, and runs the CLI in process.
"""

import json
from pathlib import Path

import pytest

from milnor_classes import cli
from milnor_classes.examples import FIXTURE_DIR, list_examples

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "fixtures"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


def test_every_fixture_has_a_golden():
    assert sorted(EXIT_CODES) == list_examples()
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == list_examples()


@pytest.mark.parametrize("name", list_examples())
def test_fixture_output_matches_golden(name, capsys):
    code = cli.main(["compute", str(FIXTURE_DIR / f"{name}.json"),
                     "--machine", "--no-timing", "--strict"])
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert code == EXIT_CODES[name]
