"""What a fresh `import milnor_classes.cli` loads, which every `compute`
process pays for: not `dataclasses`, nor `inspect`, which it would pull in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import milnor_classes

SRC = Path(milnor_classes.__file__).parent.parent
PROBE = ("import json, sys\n"
         "before = set(sys.modules)\n"
         "import milnor_classes.cli\n"
         "print(json.dumps(sorted(set(sys.modules) - before)))\n")


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "milnor_classes.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
