"""Regenerate pins.json: each op seed's tallies and decoded-word SHA-256.

    python3 perfbench/pin.py

For every workload and every op seed in PIN_SEEDS, runs the op through
simulate_point and through the public-call rebuild, requires the two to agree,
and records (frames, bit_errors, frame_errors, sha256). Regenerate only for a
change meant to alter decoded results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import platform
import sys

import numpy as np

import workloads

# Sized to cover every op of a 30-second run from any base seed below 100.
PIN_SEEDS = {
    "list8_crc32_n2048": range(0, 192),
    "sc_n256": range(0, 384),
    "mode4_1_w2_n1024": range(0, 160),
}


def pin_workload(w) -> dict:
    code = w.design()
    ops = {}
    for seed in PIN_SEEDS[w.name]:
        tallies = workloads.run_op(w, code, seed)
        rebuilt, digest = workloads.rebuild_op(w, code, seed, workloads.Tracer(), seed)
        if rebuilt != tallies:
            raise SystemExit(f"{w.name} seed {seed}: rebuild {rebuilt} != simulate {tallies}")
        ops[seed] = [*tallies, digest]
    return ops


def main() -> int:
    lines = ["{", f'"default_seed": {workloads.DEFAULT_SEED},',
             f'"numpy": "{np.__version__}", "python": "{platform.python_version()}",',
             '"workloads": {']
    names = list(workloads.WORKLOADS)
    for i, name in enumerate(names):
        ops = pin_workload(workloads.WORKLOADS[name])
        rows = [f'  "{seed}": {json.dumps(v)}' for seed, v in ops.items()]
        close = "}}" + ("," if i + 1 < len(names) else "")
        lines += [f'"{name}": {{"ops": {{', ",\n".join(rows), close]
        print(f"{name}: pinned {len(ops)} ops", file=sys.stderr)
    lines += ["}", "}"]
    text = "\n".join(lines) + "\n"
    json.loads(text)
    workloads.PINS_FILE.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
