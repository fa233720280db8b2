"""Seeded Monte Carlo frame-error simulation.

Frames are generated and decoded in fixed-size batches. Frame i's payload and
noise depend only on (seed, i), and the early-stop rule (cumulative frame
errors >= target) is evaluated at batch boundaries in frame-index order, so
tallies are byte-identical for any worker count. The batch size is part of
the reproducibility contract. With several workers each worker decodes one
batch at a time; when a batch stops the point, at most workers - 1 later
batches have been decoded, and their tallies are discarded.

SNR convention: Eb/N0 in dB with rate = K/N, K counting CRC bits.
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import channel_llrs, check_channel, default_quantize_step, frame_rng, quantize_llr
from .core import CrcSpec, PolarCode, crc_append, polar_transform
from .decoder import ModeConfig, decode_frames

CSV_HEADER = "snr_db,eps,mode,L,q,theta,frames,bit_errors,frame_errors,ber,fer,seed"


def default_batch_frames(N: int) -> int:
    """Default frames per batch, sized so working arrays stay modest."""
    return max(16, min(128, (1 << 21) // N))


@dataclass
class SweepSpec:
    """One sweep: channel parameter points plus stopping rules."""

    channel: str  # 'awgn' | 'bec'
    points: tuple  # Eb/N0 dB values, or erasure probabilities
    max_frames: int = 100_000
    target_frame_errors: int = 100
    seed: int = 1
    quantize_bits: int | None = None
    quantize_step: float | None = None

    def __post_init__(self):
        if self.quantize_bits is None and self.quantize_step is not None:
            raise ValueError("a quantizer step needs quantizer bits (--quantize-bits)")
        if self.quantize_bits is not None and self.quantize_bits < 2:
            raise ValueError("quantizer bits must be >= 2")
        if self.quantize_step is not None and not self.quantize_step > 0:
            raise ValueError("quantizer step must be > 0")
        if not self.points:
            raise ValueError("sweep needs at least one point")
        for p in self.points:
            check_channel(self.channel, p)


@dataclass
class SimPoint:
    """Tallies for one (channel parameter, mode) point."""

    snr_db: float | None
    eps: float | None
    mode: str
    L: int
    q: int
    theta: int | None
    frames: int
    bit_errors: int
    frame_errors: int
    seed: int
    K: int  # information positions per frame, CRC bits included (BER denominator)

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.frames * self.K) if self.frames else float("nan")

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else float("nan")

    def csv_row(self) -> str:
        sn = "" if self.snr_db is None else repr(float(self.snr_db))
        ep = "" if self.eps is None else repr(float(self.eps))
        th = "" if self.theta is None else str(self.theta)
        return (f"{sn},{ep},{self.mode},{self.L},{self.q},{th},{self.frames},"
                f"{self.bit_errors},{self.frame_errors},{repr(self.ber)},"
                f"{repr(self.fer)},{self.seed}")

    def as_dict(self) -> dict:
        return {
            "snr_db": self.snr_db, "eps": self.eps, "mode": self.mode, "L": self.L,
            "q": self.q, "theta": self.theta, "frames": self.frames,
            "bit_errors": self.bit_errors, "frame_errors": self.frame_errors,
            "ber": self.ber, "fer": self.fer, "seed": self.seed,
        }


def _build_frames(code: PolarCode, crc: CrcSpec | None, channel: str, param: float,
                  seed: int, start: int, count: int, quant):
    """Info words and channel LLRs for frames [start, start+count).

    Frame i draws its payload bits, then its noise row, from its own counter
    stream, so it is independent of batch boundaries.
    """
    rngs = [frame_rng(seed, start + i) for i in range(count)]
    payloads = np.stack([rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
                         for rng in rngs])
    infos = payloads if crc is None else crc_append(payloads, crc)
    u = np.zeros((count, code.N), dtype=np.uint8)
    u[:, code.info_positions] = infos
    llrs = channel_llrs(polar_transform(u), channel, param, code.rate, rngs)
    if quant is not None:
        llrs = quantize_llr(llrs, *quant)
    return infos, llrs


def _run_batch(code, crc, cfg: ModeConfig, channel, param, seed, start, count, quant):
    """Decode one batch; returns (frames, bit_errors, frame_errors)."""
    infos, llrs = _build_frames(code, crc, channel, param, seed, start, count, quant)
    u, _, _ = decode_frames(code, llrs, L=cfg.L, q=cfg.q, theta=cfg.effective_theta,
                            schedule=cfg.schedule, crc=crc)
    bad = u[:, code.info_positions] != infos
    return count, int(bad.sum()), int(bad.any(axis=1).sum())


def simulate_point(code: PolarCode, cfg: ModeConfig, channel: str, param: float, *,
                   crc: CrcSpec | None = None, seed: int = 1, target_fe: int = 100,
                   max_frames: int = 100_000, batch_frames: int | None = None,
                   workers: int = 1, quantize: tuple | None = None) -> SimPoint:
    """Monte Carlo tallies at one channel point under one decoding mode.

    Stops after the first batch whose cumulative frame errors reach target_fe
    (0 disables early stop), or at the frame cap. Identical output for any
    `workers`.
    """
    check_channel(channel, param)
    if (0 if crc is None else crc.width) != code.crc_width:
        raise ValueError(f"crc does not match the code's crc_width ({code.crc_width})")
    batch = default_batch_frames(code.N) if batch_frames is None else batch_frames
    if batch < 1 or max_frames < 1:
        raise ValueError("batch_frames and max_frames must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if target_fe < 0:
        raise ValueError("target_fe must be >= 0 (0 disables early stop)")
    starts = range(0, max_frames, batch)
    workers = min(workers, len(starts))
    frames = bit_errors = frame_errors = 0

    def consume(res):
        nonlocal frames, bit_errors, frame_errors
        f, be, fe = res
        frames += f
        bit_errors += be
        frame_errors += fe
        return target_fe > 0 and frame_errors >= target_fe

    def job(s):
        return (code, crc, cfg, channel, param, seed, s, min(batch, max_frames - s), quantize)

    if workers == 1:
        for s in starts:
            if consume(_run_batch(*job(s))):
                break
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one batch per worker, consumed in frame-index order: each batch
            # starts when submitted, and a stop leaves at most workers - 1
            # batches running, whose tallies are discarded
            inflight = deque(pool.submit(_run_batch, *job(s)) for s in starts[:workers])
            for s in starts[workers:]:
                if consume(inflight.popleft().result()):
                    break
                inflight.append(pool.submit(_run_batch, *job(s)))
            else:
                while inflight and not consume(inflight.popleft().result()):
                    pass
    snr = param if channel == "awgn" else None
    eps = param if channel == "bec" else None
    return SimPoint(snr, eps, cfg.mode, cfg.L, cfg.q, cfg.effective_theta,
                    frames, bit_errors, frame_errors, seed, code.K)


def simulate_sweep(code: PolarCode, cfg: ModeConfig, spec: SweepSpec, *,
                   crc: CrcSpec | None = None, batch_frames: int | None = None,
                   workers: int = 1, progress=None) -> list[SimPoint]:
    quant = None
    if spec.quantize_bits is not None:
        step = spec.quantize_step
        if step is None:
            step = default_quantize_step(spec.quantize_bits, code.rate)
        quant = (spec.quantize_bits, step)
    out = []
    for p in spec.points:
        pt = simulate_point(code, cfg, spec.channel, p, crc=crc, seed=spec.seed,
                            target_fe=spec.target_frame_errors, max_frames=spec.max_frames,
                            batch_frames=batch_frames, workers=workers, quantize=quant)
        out.append(pt)
        if progress is not None:
            progress(pt)
    return out


def points_to_csv(points) -> str:
    return "\n".join([CSV_HEADER, *[p.csv_row() for p in points]]) + "\n"


def points_to_json(points, meta: dict | None = None) -> str:
    doc = {
        "convention": "Eb/N0 in dB with rate K/N (K includes CRC bits); BER over all K "
                      "non-frozen positions; FER counts payload mismatches",
        "results": [p.as_dict() for p in points],
    }
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
