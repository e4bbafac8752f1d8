"""Set-up probe: import the CLI, build one workload's distributions and
reserve prices, print "ready" and exit.

`run.py` launches this in a fresh interpreter and times launch to "ready".
Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mecheff.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.build_distributions(sys.argv[1])
print("ready", flush=True)
