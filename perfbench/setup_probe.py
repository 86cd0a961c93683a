"""Time the set-up a user pays before the first sweep cell runs.

Run in a fresh interpreter with irsma importable: it imports `irsma.cli`,
loads the workload config (if one is given) and builds the `Scenario` and
`SweepSpec`, then prints the elapsed seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py [CONFIG.yaml]
"""

import sys
import time

start = time.perf_counter()

import irsma.cli  # noqa: E402,F401 - importing is part of the set-up timed
from irsma import harness  # noqa: E402
from irsma.config import Scenario, load_config, scenario_from_dict  # noqa: E402

if len(sys.argv) > 1:
    data = load_config(sys.argv[1])
    scenario = scenario_from_dict(data["scenario"])
    spec = harness.sweep_spec_from_dict(data["sweep"])
else:
    scenario = Scenario()
print(repr(time.perf_counter() - start))
