"""Set-up probe: import coherentrx and its CLI, and build one workload's inputs.

``run.py`` times this script as a fresh process to measure ``setup_s``.
Usage: ``python3 perfbench/probe.py <workload> <seed>``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports coherentrx and coherentrx.cli)

workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
