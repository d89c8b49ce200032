"""Set-up probe: one fresh interpreter imports the toolkit and warms up a
workload's code paths, then prints `ready`. `run.py` times it from process
start to that line and inherits its thread settings to it.

    python3 perfbench/probe.py WORKLOAD   (from the repository root)
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](os.getcwd(), 0, None).warm_up()
print("ready", flush=True)
