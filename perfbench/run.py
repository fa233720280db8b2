"""Benchmark of `polarkit simulate` at fixed operating points.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; polarkit is imported from its `src/`.

Each workload runs as a closed loop with one client: op i is one
`polarkit.sim.simulate_point` call under seed (base seed + i), and the next op
starts only when the last one has returned. Every op is checked: an op fails
if it raises, breaks a tally invariant, differs from the tallies pinned in
pins.json for its op seed, or (for the ops that are rebuilt from public calls)
differs from the rebuild or from the pinned decoded-word hash.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
its per-layer metrics from a separate traced run and writes the spans to
perfbench/out/. The last stdout line is the result JSON; the line before it
holds the machine context and details that are not metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

try:
    import layers
    import workloads
except ImportError as exc:  # no src/ here, or another copy of polarkit
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None

HERE = Path(__file__).resolve().parent
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
DESIGN_REPEATS = 5
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1  # so that some percentile has ten ops beyond it


@dataclass
class Op:
    seed: int
    wall_s: float
    tallies: tuple | None
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def frames(self) -> int:
        return self.tallies[0] if self.tallies else 0


def run_ops(w, code, seeds, workers=None) -> list[Op]:
    ops = []
    for seed in seeds:
        t0 = perf_counter()
        try:
            tallies, error = workloads.run_op(w, code, seed, workers), None
        except Exception as exc:  # a failed op is counted, not fatal
            tallies, error = None, repr(exc)
        ops.append(Op(seed, perf_counter() - t0, tallies, error))
    return ops


def timed_ops(w, code, base_seed: int, seconds: float, min_ops: int) -> list[Op]:
    """Closed loop: ops under seeds base, base+1, ... until time is up."""
    ops: list[Op] = []
    deadline = perf_counter() + seconds
    while len(ops) < min_ops or perf_counter() < deadline:
        ops += run_ops(w, code, [base_seed + len(ops)])
    return ops


def verify(w, code, pins: dict, ops: list[Op], rebuilt: dict) -> list[Op]:
    """Record each op's problems; return the extra (untimed) check ops.

    The default-seed check set and the first timed op are always rebuilt
    from public calls; `rebuilt` maps op seed -> (tallies, hash) for ops a
    traced run has rebuilt already.
    """
    timed = {op.seed for op in ops}
    extra = run_ops(w, code, [s for s in workloads.CHECK_SEEDS if s not in timed])
    for seed in sorted({*workloads.CHECK_SEEDS, ops[0].seed} - rebuilt.keys()):
        try:
            rebuilt[seed] = workloads.rebuild_op(w, code, seed, workloads.Tracer(), -1)
        except Exception as exc:  # reported against the op below
            rebuilt[seed] = (None, repr(exc))
    for op in ops + extra:
        pin = pins.get(op.seed)
        if op.seed in workloads.CHECK_SEEDS and pin is None:
            op.problems.append("check seed not pinned")
        if op.error is not None:
            op.problems.append(f"raised {op.error}")
            continue
        if not workloads.tallies_plausible(w, code, op.tallies):
            op.problems.append(f"implausible tallies {op.tallies}")
        if pin is not None and op.tallies != pin[0]:
            op.problems.append(f"tallies {op.tallies} != pinned {pin[0]}")
        if op.seed in rebuilt:
            tallies, digest = rebuilt[op.seed]
            if tallies != op.tallies:
                op.problems.append(f"rebuild tallies {tallies} != {op.tallies} ({digest})")
            elif pin is not None and digest != pin[1]:
                op.problems.append("decoded-word hash differs from the pin")
    return extra


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND values above its
    nearest-rank value; returns (value, percentile)."""
    n = len(values)
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(values)[rank - 1], pct


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe(w) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), w.name],
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(w, code, pins, args) -> tuple[dict, dict, list[Op]]:
    ops = timed_ops(w, code, args.seed, args.seconds, MIN_OPS)
    rss = peak_rss_mb()  # before any set-up probe becomes a reaped child
    setups = [setup_probe(w) for _ in range(SETUP_PROBES)]
    extra = verify(w, code, pins, ops, {})
    wall = sum(op.wall_s for op in ops)
    ms = [1000.0 * op.wall_s for op in ops]
    tail_ms, tail_pct = tail(ms)
    checked = ops + extra
    failed = sum(1 for op in checked if op.problems)
    metrics = {
        "frames_per_s": sum(op.frames for op in ops if not op.problems) / wall,
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "peak_rss_mb": rss,
    }
    details = {
        "fail_frac": failed / len(checked),
        "timed_ops": len(ops),
        "check_ops": len(extra),
        "op_ms_tail_percentile": tail_pct,
        "pinned_ops_checked": sum(1 for op in checked if op.seed in pins),
        "setup_parts_s": {k: statistics.median(s[k] for s in setups) for k in setups[0]},
    }
    return metrics, details, checked


def per_layer(w, code, pins, args) -> tuple[dict, dict, list[Op]]:
    # Untraced ops with the workload's workers; with a pool, the same ops again
    # on one worker; then the same ops rebuilt with spans. The passes take
    # about `seconds` together.
    ops = timed_ops(w, code, args.seed, args.seconds / (2 * w.workers), 2)
    frames = sum(op.frames for op in ops)
    wall = sum(op.wall_s for op in ops)
    if w.workers > 1:
        serial = run_ops(w, code, [op.seed for op in ops], workers=1)
        for op, s in zip(ops, serial):
            if s.tallies != op.tallies:
                op.problems.append(f"serial tallies {s.tallies} != {op.tallies}")
        serial_wall = sum(s.wall_s for s in serial)
    else:
        serial_wall = wall
    tracer = workloads.Tracer()
    rebuilt = {}
    for i, op in enumerate(ops):
        rebuilt[op.seed] = workloads.rebuild_op(w, code, op.seed, tracer, i)
    extra = verify(w, code, pins, ops, rebuilt)
    total, self_time = layers.span_totals(tracer.spans)
    traced_frames = sum(rebuilt[op.seed][0][0] for op in ops)
    per_frame = 1000.0 / traced_frames

    design_s = []
    for _ in range(DESIGN_REPEATS):
        t0 = perf_counter()
        w.design()
        design_s.append(perf_counter() - t0)
    metrics = {
        "channel.ms_per_frame": (total["channel.draw"] + total["channel.awgn_llr"]) * per_frame,
        "core.crc_ms_per_frame": total.get("core.crc_remainder_rows", 0.0) * per_frame,
        "core.encode_ms_per_frame": total["core.polar_transform"] * per_frame,
        "decoder.ms_per_frame": total["decoder.decode_frames"] * per_frame,
        "decoder.share": total["decoder.decode_frames"] / total["sim.op"],
        "sim.serial_frames_per_s": frames / serial_wall,
        "sim.scaling_eff": serial_wall / (w.workers * wall),
        "sim.glue_ms_per_frame": (self_time["sim.op"] + self_time["sim.batch"]) * per_frame,
        "construction.design_ms": 1000.0 * statistics.median(design_s),
        # traced rebuild (per-frame awgn_llr included) against untraced serial ops
        "trace_overhead_frac": (total["sim.op"] / traced_frames) / (serial_wall / frames) - 1.0,
        **layers.probes(w, code, args.seed),
        **layers.exact_counts(w, code),
    }
    checked = ops + extra
    details = {
        "traced_ops": len(ops),
        "traced_frames": traced_frames,
        "check_ops": len(extra),
        "pinned_ops_checked": sum(1 for op in checked if op.seed in pins),
        "probes": sorted(layers.PROBES),
        "self_ms_per_frame": {k: v * per_frame for k, v in sorted(self_time.items())},
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{w.name}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "context": layers.machine_context(args.seed), "workload": w.name,
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": tracer.spans}) + "\n")
    details["spans_file"] = str(spans_file.relative_to(HERE.parent))
    return metrics, details, checked


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"error: cannot import polarkit from this checkout: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_FILE.read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    pins = workloads.load_pins(w.name)
    code = w.design()
    workloads.first_decode(w, code)

    measure = per_layer if args.trace else end_to_end
    values, details, checked = measure(w, code, pins, args)
    failed = [op for op in checked if op.problems]
    details["context"] = layers.machine_context(args.seed)
    details["workload"] = w.name
    details["problems"] = [f"seed {op.seed}: {'; '.join(op.problems)}" for op in failed[:10]]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
