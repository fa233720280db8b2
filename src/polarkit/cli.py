"""Command-line front end: construct, patterns, verify-prop1, cost, simulate.

Exit codes: 0 success, 1 usage error, 2 runtime failure (including a failed
verification and running out of memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from .construction import (
    bec_reliability,
    design_mean_llr,
    ga_reliability,
    load_code_file,
    save_code_file,
    select_frozen,
    verify_reliability_ordering,
)
from .core import CRC32, _log2_exact
from .costs import METHODS, count_ops
from .decoder import ModeConfig
from .patterns import CATALOGS, extract_patterns
from .sim import check_run, points_to_csv, points_to_json, simulate_sweep

# Most points a 'start:step:stop' grid may have; checked before any is built.
_MAX_GRID_POINTS = 10_000

# Longest code `construct` designs, checked before the reliability recursion,
# which keeps every level: 2**20 takes seconds and under 100 MB, while one
# 16-frame decode batch of a longer code at L=8 holds 2 GiB of float64 LLRs.
_MAX_CONSTRUCT_N = 1 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _check_outputs(*paths) -> None:
    """Refuse an output that cannot be written before a command does any
    work or prints: its directory must exist and be writable, and the path
    must not be a directory. Empty and None paths are outputs not asked for."""
    for path in (Path(p) for p in paths if p):
        if not path.parent.is_dir() or not os.access(path.parent, os.W_OK | os.X_OK):
            raise ValueError(f"cannot write {path}: {path.parent} is not a writable directory")
        if path.is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")


def _cmd_construct(args) -> int:
    _check_outputs(args.out)
    n = _log2_exact(args.n)
    if args.n > _MAX_CONSTRUCT_N:
        raise ValueError(f"N must be at most {_MAX_CONSTRUCT_N} (2**20), got {args.n}")
    if not 0 < args.k < args.n:
        raise ValueError("K must satisfy 0 < K < N")
    if args.channel == "bec":
        if args.param is None:
            raise ValueError("--param (erasure probability) required for bec")
        table = bec_reliability(n, args.param)
        design = args.param
    else:
        if args.design_snr is None:
            raise ValueError("--design-snr required for awgn")
        table = ga_reliability(n, design_mean_llr(args.design_snr))
        design = args.design_snr
    code = select_frozen(table, args.k, design_param=design, crc_width=args.crc_width)
    save_code_file(code, args.out)
    print(f"wrote {args.out}: N={code.N} K={code.K} channel={code.construction.channel} "
          f"design={design} crc={code.crc_width}")
    return 0


def _cmd_patterns(args) -> int:
    _check_outputs(args.json)
    code = load_code_file(args.code)
    report = {"code": str(args.code), "N": code.N, "K": code.K, "census": {}}
    # every M is checked before anything prints
    censuses = [(M, extract_patterns(code, M)[1]) for M in args.m]
    for M, census in censuses:
        known = set(CATALOGS[M])
        unknown = sorted(census - known)
        report["census"][str(M)] = {
            "distinct": len(census),
            "patterns": sorted(census),
            "unknown": unknown,
        }
        print(f"M={M}: {len(census)} distinct patterns"
              + (f", {len(unknown)} outside the catalog: {unknown}" if unknown else ""))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _exact(name: str, text: str) -> Fraction:
    """A sweep value as an exact Fraction: a finite decimal whose exponent
    lies within -1000..1000, checked before Fraction expands 10**exponent,
    which runs for minutes at 1e9999999. `name` labels it in the error."""
    try:
        value = Decimal(text)
    except InvalidOperation:  # '', '0x10', '1/3', or an exponent beyond Decimal's range
        value = None
    if value is None or not value.is_finite() or abs(value.adjusted()) > 1000:
        raise ValueError(f"{name} {text!r} is not a number with a decimal exponent "
                         "within -1000..1000")
    return Fraction(value)


def _grid(name: str, start: Fraction, step: Fraction, stop: Fraction) -> list:
    """The exact points start + i*step of a grid that never passes its stop,
    and includes it when a step reaches it exactly; counted before any is
    built. `name` labels the grid in the error."""
    if step == 0:
        raise ValueError(f"{name} step must be nonzero")
    count = (stop - start) // step + 1
    if count < 1:
        raise ValueError(f"{name} has no point: its step leads away from its stop")
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"{name} has more than {_MAX_GRID_POINTS} points")
    return [start + i * step for i in range(count)]


def _cmd_verify_prop1(args) -> int:
    _check_outputs(args.json)
    start = _exact("--eps-start", args.eps_start)
    stop = _exact("--eps-stop", args.eps_stop)
    step = _exact("--eps-step", args.eps_step)
    grid = _grid(f"eps grid '{args.eps_start}:{args.eps_step}:{args.eps_stop}'",
                 start, step, stop)
    rep = verify_reliability_ordering(grid, depth=args.depth)
    doc = {
        "grid": [str(e) for e in (start, stop, step)],
        "depth": rep.depth,
        "checks": rep.checks,
        "violations": rep.violations,
        "min_abs_margin": rep.min_abs_margin,
        "min_rel_margin": rep.min_rel_margin,
        "min_rel_margin_log10": rep.min_rel_margin_log10,
        "pass": rep.ok,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    status = "PASS" if rep.ok else "FAIL"
    print(f"{status}: {rep.checks} exact ordering checks over {rep.eps_count} grid points, "
          f"depth {rep.depth}; violations: {len(rep.violations)}; "
          f"min relative margin ~1e{rep.min_rel_margin_log10:+.0f} "
          f"(exact comparisons, margins reported for information)")
    for v in rep.violations[:20]:
        print(f"  violated at eps={v[0]} level={v[1]} indices {v[2]} !> {v[3]}")
    return 0 if rep.ok else 2


def _cmd_cost(args) -> int:
    _check_outputs(args.json)
    rep = count_ops(args.method, args.m, args.q)
    print(rep.describe())
    if args.json:
        Path(args.json).write_text(json.dumps(asdict(rep), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    _check_outputs(args.out + ".csv", args.out + ".json")
    code = load_code_file(args.code)
    crc = None
    if code.crc_width:
        if code.crc_width != CRC32.width:
            raise ValueError("only the 32-bit CRC convention is defined for simulation")
        crc = CRC32
    if (args.snr is None) == (args.eps is None):
        raise ValueError("exactly one of --snr or --eps is required")
    channel = "awgn" if args.snr is not None else "bec"
    text = args.snr if channel == "awgn" else args.eps
    name = f"grid {text!r}"
    values = [_exact(f"{name} value", v) for v in text.split(":" if ":" in text else ",")]
    if ":" in text:
        if len(values) != 3:
            raise ValueError(f"{name} is not 'start:step:stop'")
        values = _grid(name, *values)
    try:  # float() rounds each exact value correctly
        points = tuple(float(v) for v in values)
    except OverflowError:
        raise ValueError(f"{name} has a non-finite value") from None

    cfg = ModeConfig(args.mode, L=args.L, q=args.q, theta=args.theta, schedule=args.schedule)

    if args.quantize_step is not None and args.quantize_bits is None:
        raise ValueError("a quantizer step needs quantizer bits (--quantize-bits)")
    run = dict(crc=crc, seed=args.seed, target_fe=args.target_fe, max_frames=args.frames,
               batch_frames=args.batch_frames, workers=args.workers,
               quantize=None if args.quantize_bits is None
               else (args.quantize_bits, args.quantize_step))
    batch = check_run(code, cfg, channel, points, **run)
    print(f"# code N={code.N} K={code.K} crc={code.crc_width} | mode={cfg.mode} "
          f"L={cfg.L} q={cfg.q} theta={cfg.theta} | "
          f"Eb/N0 with rate K/N incl CRC | seed={args.seed}")
    rows = simulate_sweep(code, cfg, channel, points,
                          progress=lambda p: print(p.csv_row(), flush=True), **run)
    Path(args.out + ".csv").write_text(points_to_csv(rows))
    Path(args.out + ".json").write_text(points_to_json(rows, meta={
        "code": str(args.code), "N": code.N, "K": code.K, "crc_width": code.crc_width,
        "schedule": cfg.schedule, "batch_frames": batch,
    }))
    print(f"wrote {args.out}.csv and {args.out}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polarkit", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="design a code and write its JSON description")
    c.add_argument("--channel", choices=("bec", "awgn"), required=True)
    c.add_argument("--n", type=int, required=True,
                   help=f"code length N (power of two, at most {_MAX_CONSTRUCT_N} = 2**20)")
    c.add_argument("--k", type=int, required=True, help="non-frozen positions incl CRC bits")
    c.add_argument("--param", type=float, help="erasure probability (bec)")
    c.add_argument("--design-snr", type=float, help="design SNR (Es/N0) in dB (awgn)")
    c.add_argument("--crc-width", type=int, default=0, choices=(0, 32))
    c.add_argument("--out", default="code.json")
    c.set_defaults(func=_cmd_construct)

    c = sub.add_parser("patterns", help="frozen-location pattern census of a code file")
    c.add_argument("--code", required=True)
    c.add_argument("--m", type=lambda s: [int(v) for v in s.split(",")], default=[2, 4, 8, 16])
    c.add_argument("--json", help="also write a JSON report here")
    c.set_defaults(func=_cmd_patterns)

    c = sub.add_parser("verify-prop1",
                       help="exact reliability-ordering verification over an eps grid")
    c.add_argument("--eps-start", default="0.001")
    c.add_argument("--eps-stop", default="0.999")
    c.add_argument("--eps-step", default="0.001")
    c.add_argument("--depth", type=int, default=8)
    c.add_argument("--json", help="also write a JSON report here")
    c.set_defaults(func=_cmd_verify_prop1)

    c = sub.add_parser("cost", help="operation-count report for an expansion method")
    c.add_argument("--method", choices=METHODS, required=True)
    c.add_argument("--m", type=int, default=8)
    c.add_argument("--q", type=int, default=4)
    c.add_argument("--json", help="also write a JSON report here")
    c.set_defaults(func=_cmd_cost)

    c = sub.add_parser("simulate", help="seeded Monte Carlo FER/BER sweep")
    c.add_argument("--code", required=True)
    c.add_argument("--mode", default="mode4", choices=tuple(ModeConfig.LIST_SIZES))
    grid = ("'start:step:stop' of exact decimals (never past stop; stop included when a "
            "step reaches it) or comma list; one that starts below 0 needs the '=' form, "
            "as in --snr=-1:0.5:1")
    c.add_argument("--snr", help=f"Eb/N0 grid in dB: {grid}")
    c.add_argument("--eps", help=f"erasure-probability grid for bec codes: {grid}")
    c.add_argument("--theta", type=int, help="mode4_1 switching point (bit index)")
    c.add_argument("--L", type=int,
                   help="override the mode's list size (the CSV keeps the mode's name)")
    c.add_argument("--q", type=int, help="override per-list expansion width")
    c.add_argument("--schedule", default="fast", choices=ModeConfig.SCHEDULES)
    c.add_argument("--frames", type=int, default=100_000, help="frame cap per point")
    c.add_argument("--target-fe", type=int, default=100,
                   help="stop a point after this many frame errors (0 = never)")
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--batch-frames", type=int, default=None)
    c.add_argument("--quantize-bits", type=int, default=None)
    c.add_argument("--quantize-step", type=float, default=None)
    c.add_argument("--out", default="sim", help="output base name (.csv/.json)")
    c.set_defaults(func=_cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
