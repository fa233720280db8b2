"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing polarkit, designing the workload's code through
polarkit.construction, and the first decode_frames call on one frame. Prints
one JSON line with the three parts in seconds.

    python3 perfbench/setup_probe.py <workload>
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

t0 = perf_counter()
import polarkit  # noqa: E402,F401
import polarkit.sim  # noqa: E402,F401

t1 = perf_counter()

import workloads  # noqa: E402

w = workloads.WORKLOADS[sys.argv[1]]
t2 = perf_counter()
code = w.design()
t3 = perf_counter()
workloads.first_decode(w, code)
t4 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "design_s": t3 - t2, "first_decode_s": t4 - t3}))
