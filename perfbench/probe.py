"""Set-up probe: a fresh interpreter imports krallops and draws the first
round of a workload's inputs, then prints "ready".

    python3 perfbench/probe.py WORKLOAD SEED

The benchmark times it from process start to the "ready" line.
"""

import sys

import krallops  # noqa: F401  (PYTHONPATH points at src/)
import workloads

workloads.round_ops(sys.argv[1], int(sys.argv[2]), 0)
print("ready", flush=True)
