"""Record the reference values the output checks compare against.

Runs one untraced pass of every workload at the default seed and writes
``perfbench/reference.json``.  Re-record only for a change that is meant to
alter results, and say so where the change is described.

Usage: ``python3 perfbench/record.py``
"""

import json
import os
import sys
import tempfile

import machine

machine.cap_threads()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

out = {"default_seed": workloads.DEFAULT_SEED, "rel_tol": workloads.REL_TOL, "workloads": {}}
for name, w in workloads.WORKLOADS.items():
    with tempfile.TemporaryDirectory() as workdir:
        ops = w.run(w.inputs(workloads.DEFAULT_SEED), workdir)
    for op in ops:
        if op.error:
            sys.exit(f"{name} {op.name}: {op.error}")
    out["workloads"][name] = {op.name: op.values for op in ops}
    print(name, "error_rate", w.error_rate(ops), flush=True)
with open(os.path.join(HERE, "reference.json"), "w") as fh:
    json.dump(out, fh, indent=2)
    fh.write("\n")
