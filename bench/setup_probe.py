"""Set-up probe: import the npbbm CLI and build a workload's configs, then exit.

run.py times this script from process start to exit as the set-up cost a
CLI user pays before any work starts.  Usage: setup_probe.py <workload>
"""

import json
import sys
from pathlib import Path

import workloads

workloads.load_cli(Path(__file__).resolve().parent.parent)
for inv in workloads.build(sys.argv[1]):
    json.dumps(inv.config)
