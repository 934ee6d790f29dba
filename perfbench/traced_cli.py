"""Run the command-line program with its layer spans recorded.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json ARG...

Installs the tracer, runs `milnor_classes.cli.main(ARG...)`, writes self
times, exact counts and raw spans to SPANS.json, and exits with the CLI's
exit code.  Standard output is the CLI's own, byte for byte.
"""

import sys
from pathlib import Path

import milnor_classes.cli

import spans


def main() -> int:
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = milnor_classes.cli.main(sys.argv[2:])
    finally:
        restore()
    tracer.dump(Path(sys.argv[1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
