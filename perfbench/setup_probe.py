"""One fresh-interpreter set-up of a workload.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the CLI module, then loads or generates the inputs of one shape
cycle of the workload, which is what a run does before its first timed op.
Prints {"import_s": seconds spent importing milnor_classes.cli}.
"""

import json
import sys
import time

start = time.perf_counter()
import milnor_classes.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

import workloads  # noqa: E402

w = workloads.make_workload(sys.argv[1], int(sys.argv[2]))
for i in range(len(w.shapes)):
    w.make_input(i)
print(json.dumps({"import_s": import_s}))
