"""Noisy-channel LLR generation: BPSK over AWGN, erasures, and quantization.

Reproducibility contract: the draws of frame i under seed s depend only on
(s, i). `frame_rng` defines that stream: a Philox generator keyed by (s, i)
with counter 0. `draw_frames` replays the same streams for a run of frames:
each frame's payload bits, the top bit of each raw-stream byte, i.e. the bits
`frame_rng(s, i).integers(0, 2, uint8)` draws, then its noise row. Either way
any partition of frames across workers replays identically. `noise_to_llrs`
is the one channel model: it turns a noise buffer into LLRs in place, for
the simulator's frame builder and for `awgn_llr`, which draws one codeword's
AWGN LLRs from a given generator.
"""

from __future__ import annotations

import numpy as np

from .core import as_bits, as_count

# Finite stand-in for certain (+-inf) erasure-channel LLRs inside decoders;
# large enough to dominate any real LLR, small enough that metric sums over a
# codeword stay far from overflow.
BEC_LLR_CLAMP = 1e30


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Counter-based generator for one frame, keyed by (seed, frame_index)."""
    key = np.array([as_count("seed", seed, 0, 2**64 - 1, "0..2**64 - 1"),
                    as_count("frame_index", frame_index, 0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_frames(seed: int, start: int, count: int, payload_bits: int, channel: str,
                N: int):
    """(payloads, noise) of frames [start, start+count): from each
    frame_rng(seed, i), payload_bits bits, then one noise row of N: standard
    normal for 'awgn', uniform on [0, 1) for 'bec'.

    One generator is reset to each frame's key with counter 0, which skips
    the key setup of a new one. Payload bit j is the top bit of byte j of
    ceil(payload_bits / 8) raw 64-bit words, bytes low first: the bits
    that `integers(0, 2, payload_bits, np.uint8)` draws (one byte per bit,
    never rejected for a range of two) from the same words, so the noise
    row after them is the same too.
    """
    rng = frame_rng(seed, start)
    bitgen = rng.bit_generator
    state = bitgen.state
    key = state["state"]["key"]
    words = -(-payload_bits // 8)
    raw = np.empty((count, words), dtype="<u8")
    noise = np.empty((count, N))
    draw = rng.standard_normal if channel == "awgn" else rng.random
    for i, raw_row, row in zip(range(start, start + count), raw, noise):
        key[1] = i
        bitgen.state = state
        raw_row[:] = bitgen.random_raw(words)
        draw(out=row)
    return raw.view(np.uint8)[:, :payload_bits] >> 7, noise


def noise_sigma2(ebno_db: float, rate: float) -> float:
    """Noise variance for unit-energy BPSK at Eb/N0 = ebno_db and given rate."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    return 1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0))


def check_channel(channel: str, param: float, rate: float) -> None:
    """Reject an unknown channel, an Eb/N0 whose noise variance at `rate` is
    not finite or lies below the smallest normal double (where 2y / sigma^2
    overflows), or an erasure probability outside (0, 1)."""
    if channel not in ("awgn", "bec"):
        raise ValueError("channel must be 'awgn' or 'bec'")
    if channel == "awgn":
        tiny = np.finfo(float).tiny
        try:
            ok = tiny <= noise_sigma2(param, rate) < np.inf  # False for NaN
        except (OverflowError, ZeroDivisionError):  # 10 ** (Eb/N0 / 10) leaves the floats
            ok = False
        if not ok:
            raise ValueError(f"Eb/N0 {param} dB has no finite noise variance >= {tiny:.4g} "
                             f"at rate {rate}")
    if channel == "bec" and not 0.0 < param < 1.0:
        raise ValueError("erasure probability must lie in (0, 1)")


def noise_to_llrs(noise: np.ndarray, x, channel: str, param: float,
                  rate: float) -> np.ndarray:
    """Turn `noise` (from draw_frames) into the LLRs of codewords x, in place.

    'awgn' computes 2 (sqrt(sigma^2) n + (1 - 2x)) / sigma^2 in that order,
    one operation at a time over the buffer; 'bec' writes 0 where n < param,
    else +-inf by the bit. Returns `noise`. The caller checks the channel.
    """
    if channel == "awgn":
        sigma2 = noise_sigma2(param, rate)
        noise *= np.sqrt(sigma2)
        sign = np.multiply(x, -2, dtype=np.int8)
        sign += 1
        noise += sign  # 1 - 2x
        noise *= 2.0
        noise /= sigma2
        return noise
    erased = noise < param
    noise[...] = np.inf
    np.copyto(noise, -np.inf, where=np.not_equal(x, 0))
    noise[erased] = 0.0
    return noise


def awgn_llr(x, ebno_db: float, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Channel LLRs for one codeword over BPSK-AWGN, its noise drawn from rng.

    Bit 0 -> +1, 1 -> -1 at Eb/N0 = ebno_db dB and code rate `rate`, and
    LLR_i = 2 y_i / sigma^2: on the all-zero word the LLRs are Gaussian with
    mean 2/sigma^2 and variance 4/sigma^2.
    """
    x = as_bits(x)
    check_channel("awgn", ebno_db, rate)
    return noise_to_llrs(rng.standard_normal(x.shape), x, "awgn", ebno_db, rate)


def default_quantize_step(bits: int, rate: float) -> float:
    """Quantizer step that saturates at about 4 sigma of the AWGN channel LLR
    at Eb/N0 = 2 dB; bits outside 2..1024 raise ValueError, as in quantize_llr."""
    bits = as_count("quantizer bits", bits, 2, 1024)
    std = 2.0 / np.sqrt(noise_sigma2(2.0, rate))
    return 4.0 * std / (2.0 ** (bits - 1) - 1)


def quantize_llr(llr, bits: int, step: float) -> np.ndarray:
    """Uniform symmetric quantizer saturating at +-(2**(bits-1) - 1) * step.

    Zero maps to zero and quantized values are fixed points (round half to
    even at bin edges).
    """
    check_quantizer(bits, step)
    llr = np.asarray(llr, dtype=np.float64)
    lim = 2.0 ** (bits - 1) - 1  # a float: numpy integer bits would overflow 1 << 63
    # a ratio that overflows is +-inf, which the clip saturates like any other
    with np.errstate(over="ignore"):
        return np.clip(np.rint(llr / step), -lim, lim) * step


def check_quantizer(bits: int, step: float) -> None:
    """Reject a quantizer of bits outside 2..1024 (past 1024 bits its limit
    2**(bits-1) - 1 is no double) or with a step that is not a finite number
    > 0, None included."""
    as_count("quantizer bits", bits, 2, 1024)
    if step is None or not 0 < step < np.inf:
        raise ValueError("quantizer step must be a finite number > 0")
