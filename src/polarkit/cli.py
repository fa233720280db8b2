"""Command-line front end: construct, patterns, verify-prop1, cost, simulate.

Exit codes: 0 success, 1 usage error, 2 runtime failure (including a failed
verification).
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .patterns import (
    EIGHT_BIT_PATTERNS,
    FOUR_BIT_PATTERNS,
    SIXTEEN_BIT_PATTERNS,
    TWO_BIT_PATTERNS,
    extract_patterns,
)
from .sim import SweepSpec, points_to_csv, points_to_json, simulate_sweep

_CATALOG = {2: TWO_BIT_PATTERNS, 4: FOUR_BIT_PATTERNS, 8: EIGHT_BIT_PATTERNS,
            16: SIXTEEN_BIT_PATTERNS}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_construct(args) -> int:
    n = _log2_exact(args.n)
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
    code = load_code_file(args.code)
    report = {"code": str(args.code), "N": code.N, "K": code.K, "census": {}}
    for M in args.m:
        _, census = extract_patterns(code, M)
        known = set(_CATALOG[M])
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


def _cmd_verify_prop1(args) -> int:
    start = Fraction(args.eps_start)
    stop = Fraction(args.eps_stop)
    step = Fraction(args.eps_step)
    if step <= 0:
        raise ValueError("--eps-step must be positive")
    grid = []
    e = start
    while e <= stop:
        grid.append(e)
        e += step
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
    rep = count_ops(args.method, args.m, args.q)
    print(rep.describe())
    if args.json:
        doc = {"method": rep.method, "M": rep.M, "q": rep.q,
               "multiplications": rep.multiplications,
               "step0_multiplications": rep.step0_multiplications,
               "step2_multiplications": rep.step2_multiplications,
               "sorts": [list(s) for s in rep.sorts]}
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _parse_points(text: str) -> tuple:
    if ":" in text:
        a, s, b = (float(v) for v in text.split(":"))
        if s == 0:
            raise ValueError(f"grid step must be nonzero in {text!r}")
        n = int(round((b - a) / s)) + 1
        return tuple(a + i * s for i in range(n))
    return tuple(float(v) for v in text.split(","))


def _cmd_simulate(args) -> int:
    code = load_code_file(args.code)
    crc = None
    if code.crc_width:
        if code.crc_width != CRC32.width:
            raise ValueError("only the 32-bit CRC convention is defined for simulation")
        crc = CRC32
    if (args.snr is None) == (args.eps is None):
        raise ValueError("exactly one of --snr or --eps is required")
    channel = "awgn" if args.snr is not None else "bec"
    points = _parse_points(args.snr if channel == "awgn" else args.eps)

    preset = {"mode4": ModeConfig.mode4, "mode2": ModeConfig.mode2,
              "mode1": ModeConfig.mode1}.get(args.mode)
    kw = {"schedule": args.schedule}
    if args.theta is not None and args.mode != "mode4_1":
        raise ValueError("--theta applies only to --mode mode4_1")
    if args.mode == "mode4_1":
        if args.theta is None:
            raise ValueError("mode4_1 requires --theta")
        cfg = ModeConfig.mode4_1(args.theta, **kw)
    elif preset is not None:
        cfg = preset(**kw)
    else:
        raise ValueError(f"unknown mode {args.mode!r}")
    if args.L is not None or args.q is not None:
        cfg = ModeConfig.custom(L=args.L if args.L is not None else cfg.L, q=args.q,
                                theta=cfg.theta, **kw)
        cfg.mode = args.mode  # echo the requested label in reports

    spec = SweepSpec(channel=channel, points=points, max_frames=args.frames,
                     target_frame_errors=args.target_fe, seed=args.seed,
                     quantize_bits=args.quantize_bits, quantize_step=args.quantize_step)
    print(f"# code N={code.N} K={code.K} crc={code.crc_width} | mode={cfg.mode} "
          f"L={cfg.L} q={cfg.q} theta={cfg.effective_theta} | "
          f"Eb/N0 with rate K/N incl CRC | seed={spec.seed}")
    rows = simulate_sweep(code, cfg, spec, crc=crc, batch_frames=args.batch_frames,
                          workers=args.workers,
                          progress=lambda p: print(p.csv_row(), flush=True))
    Path(args.out + ".csv").write_text(points_to_csv(rows))
    Path(args.out + ".json").write_text(points_to_json(rows, meta={
        "code": str(args.code), "N": code.N, "K": code.K, "crc_width": code.crc_width,
        "schedule": cfg.schedule, "batch_frames": args.batch_frames,
    }))
    print(f"wrote {args.out}.csv and {args.out}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polarkit", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="design a code and write its JSON description")
    c.add_argument("--channel", choices=("bec", "awgn"), required=True)
    c.add_argument("--n", type=int, required=True, help="code length N (power of two)")
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
    c.add_argument("--mode", default="mode4",
                   choices=("mode4", "mode2", "mode1", "mode4_1"))
    c.add_argument("--snr", help="Eb/N0 grid: 'start:step:stop' or comma list (dB)")
    c.add_argument("--eps", help="erasure-probability grid for bec codes")
    c.add_argument("--theta", type=int, help="mode4_1 switching point (bit index)")
    c.add_argument("--L", type=int, help="override list size")
    c.add_argument("--q", type=int, help="override per-list expansion width")
    c.add_argument("--schedule", default="fast", choices=("fast", "dnc", "bitwise"))
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
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
