"""Bit-exactness guards.

Op seed 1 of every benchmark workload, rebuilt from public calls, must
reproduce the tallies and decoded-word SHA-256 pinned in perfbench/pins.json,
and `simulate_point` must reproduce the tallies. A grid of small decodes
over codes, channels, schedules, (L, q) and theta must reproduce one pinned
SHA-256 of every (u, path metrics, CRC flags). A change that moves decoded
words fails here in seconds instead of only in the benchmark run. The CSV
files of a few `polarkit simulate` runs must reproduce one pinned SHA-256.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

import polarkit as pk
from polarkit.cli import main

from conftest import make_noisy_frames

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_op_seed_1(name):
    w = workloads.WORKLOADS[name]
    code = w.design()
    tallies, sha = workloads.rebuild_op(w, code, 1, workloads.Tracer(), 0)
    assert (tallies, sha) == workloads.load_pins(name)[1]
    assert workloads.run_op(w, code, 1, workers=1) == tallies


_CRC8 = pk.CrcSpec(width=8, polynomial=0x07, init=0, xor_out=0, reflect=False)
_CRC16 = pk.CrcSpec(width=16, polynomial=0x1021, init=0xFFFF, xor_out=0, reflect=False)
# (n, K, crc): K counts the CRC bits
_GRID_CODES = [(5, 16, None), (6, 40, _CRC8), (8, 140, _CRC16)]
_GRID_LQ = [(1, None), (2, 1), (4, 2), (8, 4), (8, None)]
# re-taken when rate-R-2 leaf penalties were clamped at 0 (rounding had left
# some at -eps): that moved 57 winner metrics by at most 2e-15 relative, and
# no decoded word or CRC flag; re-taken, with the decoder unchanged, when the
# theta 3N/8 + 5 (inside an eight-bit leaf) joined the grid. Any other change
# of this digest is a change of decoded results
_GRID_SHA256 = "241762397d045a83f1a2890daef5b84e67cf0b7675b12c2fd56d98d7486763ab"


def _grid_llrs(code, crc, kind, rng):
    _, llrs = make_noisy_frames(code, 6, 1.5, rng, crc=crc)
    if kind == "bec":
        return np.where(rng.random(llrs.shape) < 0.35, 0.0, np.sign(llrs) * np.inf)
    if kind == "quantized":
        return pk.quantize_llr(llrs, 4, 1.0)
    return llrs


def test_pinned_decode_grid():
    digest = hashlib.sha256()
    rng = np.random.default_rng(5)
    for n, K, crc in _GRID_CODES:
        code = pk.select_frozen(pk.bec_reliability(n, 0.4), K,
                                crc_width=0 if crc is None else crc.width)
        for kind in ("awgn", "bec", "quantized"):
            llrs = _grid_llrs(code, crc, kind, rng)
            for schedule in ("fast", "dnc", "bitwise"):
                for L, q in _GRID_LQ:
                    for theta in (None, 0, code.N // 2, 3 * code.N // 8 + 5):
                        u, pm, ok = pk.decode_frames(code, llrs, L=L, q=q, theta=theta,
                                                     schedule=schedule, crc=crc)
                        digest.update(u.tobytes() + pm.tobytes())
                        digest.update(b"-" if ok is None else ok.tobytes())
    assert digest.hexdigest() == _GRID_SHA256


# (code, simulate options): early stop on a grid, BEC on a pool, a quantizer
# with its default step, a CRC with odd batches, and theta = N/2 on a pool
_CSV_RUNS = [
    ("c256", ["--mode", "mode1", "--snr", "1:0.5:2.5", "--frames", "2000",
              "--target-fe", "30", "--seed", "3"]),
    ("c256", ["--mode", "mode1", "--eps", "0.3,0.45", "--frames", "600",
              "--target-fe", "25", "--seed", "4", "--workers", "2", "--batch-frames", "64"]),
    ("c256", ["--mode", "mode2", "--snr", "2.0", "--frames", "512", "--target-fe", "0",
              "--seed", "5", "--quantize-bits", "5"]),
    ("crc128", ["--mode", "mode4", "--snr", "1.5,3", "--frames", "200", "--target-fe", "10",
                "--seed", "6", "--batch-frames", "48"]),
    ("c256", ["--mode", "mode4_1", "--theta", "128", "--snr", "1.5", "--frames", "512",
              "--target-fe", "40", "--seed", "7", "--workers", "2"]),
]
_CSV_SHA256 = "e75a10bae0309c30638105a600b43a63d877ad58821de3f881c3fc5795e2043f"


def test_pinned_simulate_csv(tmp_path):
    codes = {"c256": pk.select_frozen(pk.bec_reliability(8, 0.5), 128),
             "crc128": pk.select_frozen(pk.ga_reliability(7, 2.0), 72, crc_width=32)}
    for name, code in codes.items():
        pk.save_code_file(code, tmp_path / f"{name}.json")
    digest = hashlib.sha256()
    for i, (name, opts) in enumerate(_CSV_RUNS):
        out = tmp_path / f"run{i}"
        assert main(["simulate", "--code", str(tmp_path / f"{name}.json"), *opts,
                     "--out", str(out)]) == 0
        digest.update(out.with_suffix(".csv").read_bytes())
    assert digest.hexdigest() == _CSV_SHA256
