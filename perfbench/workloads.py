"""Workload table, one benchmark op, and the public-call rebuild of an op.

An op is one `polarkit.sim.simulate_point` call at a workload's operating
point under its own seed (base seed + op index). The rebuild regenerates the
same frames through the public channel/core functions, decodes them with
`polarkit.decoder.decode_frames` and applies the same batch-boundary stop
rule, so it must reproduce the op's tallies exactly; it also hashes the
decoded words, which `simulate_point` does not return.

Importing this module puts the checkout's `src/` first on `sys.path` and
refuses any other copy of polarkit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import polarkit  # noqa: E402

if Path(polarkit.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"polarkit imported from {polarkit.__file__}, not from {SRC}")

from polarkit import construction, decoder, sim  # noqa: E402
from polarkit.channel import awgn_llr, frame_rng  # noqa: E402
from polarkit.core import CRC32, crc_remainder_rows, polar_transform  # noqa: E402

PINS_FILE = HERE / "pins.json"
DEFAULT_SEED = 1
# Op seeds of the default-seed check set, verified on every run.
CHECK_SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    K: int
    design_channel: str  # "bec" (param = erasure prob.) | "ga" (param = design SNR dB)
    design_param: float
    crc: bool
    mode: str  # "custom" | "mode1" | "mode4_1"
    L: int
    q: int | None
    theta: int | None
    snr_db: float
    max_frames: int
    target_fe: int
    workers: int

    def design(self):
        """Frozen set through polarkit.construction, as `polarkit construct` does."""
        if self.design_channel == "bec":
            table = construction.bec_reliability(self.n, self.design_param)
        else:
            z0 = construction.design_mean_llr(self.design_param)
            table = construction.ga_reliability(self.n, z0)
        return construction.select_frozen(table, self.K, design_param=self.design_param,
                                          crc_width=32 if self.crc else 0)

    def config(self) -> decoder.ModeConfig:
        if self.mode == "custom":
            return decoder.ModeConfig.custom(L=self.L, q=self.q)
        if self.mode == "mode1":
            return decoder.ModeConfig.mode1()
        return decoder.ModeConfig.mode4_1(theta=self.theta)

    @property
    def crc_spec(self):
        return CRC32 if self.crc else None


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # ROADMAP baseline point: list engine, AML unit with q < L, CRC pick over 8 paths.
    Workload("list8_crc32_n2048", n=11, K=1433, design_channel="bec", design_param=0.32,
             crc=True, mode="custom", L=8, q=4, theta=None, snr_db=3.2,
             max_frames=128, target_fe=0, workers=1),
    # Bypass point: selector, AML unit and CRC do no work; draws and walk overhead do.
    Workload("sc_n256", n=8, K=128, design_channel="bec", design_param=0.5,
             crc=False, mode="mode1", L=1, q=None, theta=None, snr_db=2.0,
             max_frames=1024, target_fe=0, workers=1),
    # Process pool, batch-boundary stop rule and cancellation of in-flight batches.
    Workload("mode4_1_w2_n1024", n=10, K=512, design_channel="ga", design_param=2.0,
             crc=False, mode="mode4_1", L=4, q=None, theta=512, snr_db=2.0,
             max_frames=4096, target_fe=50, workers=2),
)}


def run_op(w: Workload, code, seed: int, workers: int | None = None) -> tuple:
    """One op: simulate_point at the workload's point; returns its tallies."""
    p = sim.simulate_point(code, w.config(), "awgn", w.snr_db, crc=w.crc_spec, seed=seed,
                           target_fe=w.target_fe, max_frames=w.max_frames,
                           workers=w.workers if workers is None else workers)
    return (p.frames, p.bit_errors, p.frame_errors)


def first_decode(w: Workload, code) -> None:
    """The first decode_frames call on one frame (builds the cached schedule)."""
    cfg = w.config()
    decoder.decode_frames(code, np.full((1, code.N), 4.0), L=cfg.L, q=cfg.q,
                          theta=cfg.effective_theta, schedule=cfg.schedule, crc=w.crc_spec)


def tallies_plausible(w: Workload, code, tallies) -> bool:
    """Invariants every op must meet, whatever its seed."""
    frames, bit_errors, frame_errors = tallies
    if not 0 <= frame_errors <= bit_errors <= frames * code.K:
        return False
    if frame_errors > frames or not 0 < frames <= w.max_frames:
        return False
    if w.target_fe == 0:
        return frames == w.max_frames
    batch = sim.default_batch_frames(code.N)
    return (frames == w.max_frames or frame_errors >= w.target_fe) and (
        frames % batch == 0 or frames == w.max_frames)


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, op: int) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, op])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()


def rebuild_op(w: Workload, code, seed: int, t: Tracer, op: int):
    """Regenerate and decode one op's frames from public calls.

    Returns ((frames, bit_errors, frame_errors), sha256 of the decoded words).
    """
    cfg = w.config()
    crc = w.crc_spec
    N, K = code.N, code.K
    info_pos = code.info_positions
    batch = sim.default_batch_frames(N)
    digest = hashlib.sha256()
    frames = bit_errors = frame_errors = 0
    top = t.begin("sim.op", op)
    for start in range(0, w.max_frames, batch):
        count = min(batch, w.max_frames - start)
        b = t.begin("sim.batch", op)
        s = t.begin("channel.draw", op)
        rngs = [frame_rng(seed, start + i) for i in range(count)]
        payloads = np.stack([r.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
                             for r in rngs])
        t.end(s)
        if crc is not None:
            s = t.begin("core.crc_remainder_rows", op)
            regs = crc_remainder_rows(payloads, crc)
            t.end(s)
            # reflected CRC: register LSB first (see polarkit.core.crc_bits)
            shifts = np.arange(crc.width, dtype=np.uint64)
            tails = ((regs[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
            infos = np.concatenate([payloads, tails], axis=1)
        else:
            infos = payloads
        u = np.zeros((count, N), dtype=np.uint8)
        u[:, info_pos] = infos
        s = t.begin("core.polar_transform", op)
        x = polar_transform(u)
        t.end(s)
        s = t.begin("channel.awgn_llr", op)
        llrs = np.stack([awgn_llr(x[i], w.snr_db, K / N, rngs[i]) for i in range(count)])
        t.end(s)
        s = t.begin("decoder.decode_frames", op)
        u_hat, _, _ = decoder.decode_frames(code, llrs, L=cfg.L, q=cfg.q,
                                            theta=cfg.effective_theta,
                                            schedule=cfg.schedule, crc=crc)
        t.end(s)
        digest.update(np.ascontiguousarray(u_hat, dtype=np.uint8).tobytes())
        bad = u_hat[:, info_pos] != infos
        frames += count
        bit_errors += int(bad.sum())
        frame_errors += int(bad.any(axis=1).sum())
        t.end(b)
        if w.target_fe > 0 and frame_errors >= w.target_fe:
            break
    t.end(top)
    return (frames, bit_errors, frame_errors), digest.hexdigest()


def load_pins(name: str) -> dict:
    """{op seed: (tallies, decoded-word sha256)} pinned for one workload."""
    doc = json.loads(PINS_FILE.read_text())
    ops = doc["workloads"][name]["ops"]
    return {int(s): (tuple(v[:3]), v[3]) for s, v in ops.items()}
