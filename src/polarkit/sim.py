"""Seeded Monte Carlo frame-error simulation.

`simulate_point` tallies one channel point and `simulate_sweep` a sequence of
them, with the same keywords (crc, seed, target_fe, max_frames, batch_frames,
workers, quantize); `check_run` is their one check, made before any frame of
the point or sweep decodes.

Frame i's payload and noise depend only on (seed, i): they are the draws of
`channel.frame_rng(seed, i)`, payload first; the payload bits are the top bit
of each raw-stream byte, i.e. the bits `frame_rng(seed, i).integers(0, 2,
uint8)` draws. The early-stop rule (cumulative frame errors >= target) is
evaluated at the boundaries of fixed-size stop batches in frame-index order,
so tallies are byte-identical for any worker count. The batch size is part of
the reproducibility contract.

Frames are decoded in chunks of consecutive batches, one `decode_frames` call
per chunk, with up to `_CHUNK_LLRS` LLRs per call (L * N per frame); a chunk
draws its frames from one generator reset per frame (`channel.draw_frames`).
Without early stop every chunk is full. With it the first chunk is one batch,
and each later one holds the batches that the error rate so far predicts are
left to the stop, less those in flight, so a point that stops early decodes
about what one batch per call would. Tallies are still consumed one batch at
a time, and when a batch stops the point the rest of its chunk is discarded.
With several workers each worker decodes one chunk at a time; a stop also
finds at most workers - 1 later chunks in flight. They are ended, not
finished: the point terminates their worker processes and reaps them before
it returns, and their tallies are never read. Chunk sizes change how fast a
point runs, never its tallies.

SNR convention: Eb/N0 in dB with rate = K/N, K counting CRC bits.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .channel import (
    check_channel,
    check_quantizer,
    default_quantize_step,
    draw_frames,
    noise_to_llrs,
    quantize_llr,
)
from .core import CrcSpec, PolarCode, as_count, crc_append, encode
from .decoder import ModeConfig, decode_frames

CSV_HEADER = "snr_db,eps,mode,L,q,theta,frames,bit_errors,frame_errors,ber,fer,seed"
_FLOAT_COLUMNS = {"snr_db", "eps", "ber", "fer"}  # written as repr(float)

# LLRs (L * N per frame) per decode_frames call: several stop batches of a
# small code share one call, whose overhead bounds them, while the working
# arrays of the call stay small (2**18 raised the benchmark's peak RSS by 9%).
_CHUNK_LLRS = 1 << 17

# Most LLRs (L * N per frame) one stop batch may hold: a decode call takes one
# batch at least and raises the resident set by 3-5 bytes per LLR (README,
# "Batch size bound"), so 2**25 stays near 160 MB.
_MAX_BATCH_LLRS = 1 << 25


def default_batch_frames(N: int) -> int:
    """Default frames per batch, sized so working arrays stay modest."""
    return max(16, min(128, (1 << 21) // N))


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

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_HEADER.split(",")}

    def csv_row(self) -> str:
        return ",".join("" if v is None else repr(float(v)) if k in _FLOAT_COLUMNS else str(v)
                        for k, v in self.as_dict().items())


def _build_frames(code: PolarCode, crc: CrcSpec | None, channel: str, param: float,
                  seed: int, start: int, count: int, quant):
    """Info words and channel LLRs for frames [start, start+count).

    Frame i draws its payload bits, then its noise row, from its own counter
    stream, so it is independent of batch and chunk boundaries.
    """
    payloads, noise = draw_frames(seed, start, count, code.payload_bits, channel, code.N)
    infos = payloads if crc is None else crc_append(payloads, crc)
    llrs = noise_to_llrs(noise, encode(code, infos), channel, param, code.rate)
    if quant is not None:
        llrs = quantize_llr(llrs, *quant)
    return infos, llrs


def _run_chunk(code, crc, cfg: ModeConfig, channel, param, seed, batch, quant, start, count):
    """Decode frames [start, start+count) in one call; returns the
    (frames, bit_errors, frame_errors) of each stop batch, in frame order."""
    infos, llrs = _build_frames(code, crc, channel, param, seed, start, count, quant)
    u, _, _ = decode_frames(code, llrs, L=cfg.L, q=cfg.q, theta=cfg.theta,
                            schedule=cfg.schedule, crc=crc)
    bad = u[:, code.info_positions] != infos
    return [(len(b), int(b.sum()), int(b.any(axis=1).sum()))
            for b in (bad[i:i + batch] for i in range(0, count, batch))]


def _quantizer(quantize: tuple | None, rate: float) -> tuple | None:
    """quantize = (bits, step), checked, with a step of None made
    default_quantize_step(bits, rate); None, no quantizer, stays None."""
    if quantize is not None:
        bits, step = quantize
        quantize = bits, default_quantize_step(bits, rate) if step is None else step
        check_quantizer(*quantize)
    return quantize


def check_run(code: PolarCode, cfg: ModeConfig, channel: str, params, *,
              crc: CrcSpec | None = None, seed: int = 1, target_fe: int = 100,
              max_frames: int = 100_000, batch_frames: int | None = None,
              workers: int = 1, quantize: tuple | None = None) -> int:
    """Reject what no run of `cfg` on `code` at the channel points `params`
    can use, before any frame decodes; the keywords are simulate_point's.
    Returns the stop batch size: batch_frames, or default_batch_frames(code.N)
    for None."""
    if len(params) == 0:
        raise ValueError("a run needs at least one channel point")
    for param in params:
        check_channel(channel, param, code.rate)
    if (0 if crc is None else crc.width) != code.crc_width:
        raise ValueError(f"crc does not match the code's crc_width ({code.crc_width})")
    cfg.switch_point(code.N)
    as_count("seed", seed, 0, 2**64 - 1, "0..2**64 - 1")
    as_count("max_frames", max_frames, 1)
    batch = (default_batch_frames(code.N) if batch_frames is None
             else as_count("batch_frames", batch_frames, 1))
    if cfg.L * code.N * batch > _MAX_BATCH_LLRS:
        raise ValueError(f"a stop batch of L*N*batch = {cfg.L}*{code.N}*{batch} LLRs exceeds "
                         "2**25; a smaller --L or --batch-frames gets under it")
    as_count("workers", workers, 1)
    as_count("target_fe", target_fe, 0)
    _quantizer(quantize, code.rate)
    return batch


def simulate_point(code: PolarCode, cfg: ModeConfig, channel: str, param: float, *,
                   crc: CrcSpec | None = None, seed: int = 1, target_fe: int = 100,
                   max_frames: int = 100_000, batch_frames: int | None = None,
                   workers: int = 1, quantize: tuple | None = None) -> SimPoint:
    """Monte Carlo tallies at one channel point under one decoding mode.

    Stops after the first batch whose cumulative frame errors reach target_fe
    (0 disables early stop), or at the frame cap. Identical output for any
    `workers`. batch_frames None stands for default_batch_frames(code.N).
    quantize = (bits, step) quantizes the LLRs; a step of None stands for
    default_quantize_step(bits, code.rate).
    """
    batch = check_run(code, cfg, channel, (param,), crc=crc, seed=seed, target_fe=target_fe,
                      max_frames=max_frames, batch_frames=batch_frames, workers=workers,
                      quantize=quantize)
    quantize = _quantizer(quantize, code.rate)
    full = max(1, _CHUNK_LLRS // (cfg.L * code.N * batch))  # batches per full chunk
    workers = min(workers, -(-max_frames // (full * batch)))
    run = partial(_run_chunk, code, crc, cfg, channel, param, seed, batch, quantize)
    frames = bit_errors = frame_errors = 0

    def consume(tallies):
        """Add a chunk's batches in order; True once a batch stops the point."""
        nonlocal frames, bit_errors, frame_errors
        for f, be, fe in tallies:
            frames += f
            bit_errors += be
            frame_errors += fe
            if target_fe > 0 and frame_errors >= target_fe:
                return True
        return False

    def jobs():
        """(start, count) of each chunk, in frame order, each sized when it
        is asked for from the tallies consumed by then."""
        s = 0
        while s < max_frames:
            n = full
            if target_fe > 0:
                # frames to the stop at the error rate so far (one error if
                # none yet), less those already in flight: one batch at first
                left = ((target_fe - frame_errors) * frames // max(frame_errors, 1)
                        - (s - frames))
                n = min(full, max(1, -(-left // batch)))
            count = min(n * batch, max_frames - s)
            yield s, count
            s += count

    if workers == 1:
        for job in jobs():
            if consume(run(*job)):
                break
    else:
        # imported here: single-worker runs and the CLI's start-up skip its cost
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        inflight = deque()
        try:
            # one chunk per worker, consumed in frame-index order: each chunk
            # starts when submitted, and a stop leaves at most workers - 1
            # chunks running, whose tallies are discarded
            pending = jobs()
            inflight.extend(pool.submit(run, *job) for job in islice(pending, workers))
            while inflight and not consume(inflight.popleft().result()):
                job = next(pending, None)
                if job is not None:
                    inflight.append(pool.submit(run, *job))
        except BrokenExecutor as e:  # an OSError, which the CLI reports as exit 2
            raise ChildProcessError("a worker process died (killed, or out of memory?)") from e
        finally:
            if inflight:
                # a stop, an error or Ctrl-C left chunks running whose tallies
                # are never read: end their workers instead of waiting. Python
                # < 3.14 has no public terminate_workers(), so this reads the
                # pool's private process table (a thread pool has none).
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
    snr = param if channel == "awgn" else None
    eps = param if channel == "bec" else None
    return SimPoint(snr, eps, cfg.mode, cfg.L, cfg.q, cfg.theta, frames, bit_errors,
                    frame_errors, int(seed), code.K)  # a checked count; JSON takes no numpy int


def simulate_sweep(code: PolarCode, cfg: ModeConfig, channel: str, points, *,
                   progress=None, **kw) -> list[SimPoint]:
    """simulate_point at each of `points` with its keywords `kw`, all checked
    first; progress(point), if given, sees each result as it lands."""
    check_run(code, cfg, channel, points, **kw)
    out = []
    for p in points:
        out.append(simulate_point(code, cfg, channel, p, **kw))
        if progress is not None:
            progress(out[-1])
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
