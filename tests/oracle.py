"""Brute-force references for tests: dense-matrix encoding, a bit-serial CRC
register, a nibble-at-a-time code-file mask writer, the direct form of the
Gaussian-approximation contraction tau, exhaustive symbol expansion,
exhaustive ML decoding, and a bit-serial SC decoder.

Everything here is intentionally independent of the production decoder (own
codeword generation, own metric sums, own update formulas) so cross-checks are
meaningful. These functions favor clarity over speed and carry explicit size
caps.
"""

from __future__ import annotations

import math

import numpy as np

from polarkit.core import PolarCode
from polarkit.patterns import FrozenPattern

_MATRIX_CAP = 4096
_ML_CAP = 20


def generator_matrix(N: int) -> np.ndarray:
    """Dense generator (bit-reversal times the Kronecker kernel) over GF(2)."""
    if N > _MATRIX_CAP:
        raise ValueError(f"dense generator capped at N={_MATRIX_CAP}")
    if N < 1 or N & (N - 1):
        raise ValueError("N must be a power of two")
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    G = np.array([[1]], dtype=np.uint8)
    n = N.bit_length() - 1
    for _ in range(n):
        G = np.kron(F, G) % 2
    rev = np.zeros(N, dtype=np.int64)
    for i in range(N):
        r, v = 0, i
        for _ in range(n):
            r = (r << 1) | (v & 1)
            v >>= 1
        rev[i] = r
    return G[rev, :]


def matrix_encode(u) -> np.ndarray:
    """Encode by explicit GF(2) matrix multiplication (rows or one vector)."""
    u = np.asarray(u, dtype=np.uint8)
    rows = np.atleast_2d(u)
    G = generator_matrix(rows.shape[1])
    x = (rows.astype(np.int64) @ G.astype(np.int64) % 2).astype(np.uint8)
    return x[0] if u.ndim == 1 else x


def _reflect_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def crc_register_bit_serial(rows: np.ndarray, spec) -> np.ndarray:
    """CRC register value (xor_out applied) for each row of a (rows, nbits)
    bit matrix, shifting one input bit per step; `spec` is a CrcSpec."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
    w = spec.width
    reg = np.full(rows.shape[0], spec.init, dtype=np.uint64)
    if spec.reflect:
        poly = np.uint64(_reflect_bits(spec.polynomial, w))
        one = np.uint64(1)
        for j in range(rows.shape[1]):
            fb = (reg ^ rows[:, j].astype(np.uint64)) & one
            reg = (reg >> one) ^ (fb * poly)
    else:
        poly = np.uint64(spec.polynomial)
        top = np.uint64(w - 1)
        mask = np.uint64((1 << w) - 1)
        one = np.uint64(1)
        for j in range(rows.shape[1]):
            fb = ((reg >> top) ^ rows[:, j].astype(np.uint64)) & one
            reg = ((reg << one) & mask) ^ (fb * poly)
    return (reg ^ np.uint64(spec.xor_out)) & np.uint64((1 << w) - 1)


def mask_to_hex_per_nibble(mask) -> str:
    """Code-file hex of a frozen mask, one nibble per step: character k holds
    positions 4k..4k+3, position 4k+j in bit j; positions past the mask's end
    (a mask of N = 2 has two) count as 0."""
    out = []
    for k in range(0, len(mask), 4):
        nib = sum(int(mask[k + j]) << j for j in range(4) if k + j < len(mask))
        out.append("0123456789abcdef"[nib])
    return "".join(out)


def tau_linear(x: float) -> float:
    """tau(x) as specified, evaluated directly: exp(-0.4527 x^0.86 + 0.0218)
    for x < 10, else sqrt(pi / x) exp(-x / 4) (1 - 10 / (7 x))."""
    if x < 10.0:
        return math.exp(-0.4527 * x**0.86 + 0.0218)
    return math.sqrt(math.pi / x) * math.exp(-x / 4.0) * (1.0 - 10.0 / (7.0 * x))


def hard_decision(llr):
    """0 for llr >= 0, else 1 (an LLR of exactly 0 decides 0)."""
    return (np.asarray(llr) < 0).astype(np.uint8)


def _mismatch_penalty(llr, codewords) -> np.ndarray:
    """Sum of |llr_j| over positions where a codeword disagrees with sign(llr).

    llr: (..., M); codewords: (S, M). Returns (..., S).
    """
    llr = np.asarray(llr, dtype=np.float64)
    mism = codewords[None, :, :] != hard_decision(llr).reshape(-1, 1, llr.shape[-1])
    pen = (np.abs(llr).reshape(-1, 1, llr.shape[-1]) * mism).sum(axis=2)
    return pen.reshape(llr.shape[:-1] + (codewords.shape[0],))


def valid_symbols(pattern: FrozenPattern) -> np.ndarray:
    """Ascending symbol values consistent with the frozen mask (bit 1 = MSB)."""
    M = pattern.M
    frozen_weight = sum(1 << (M - k) for k, b in enumerate(pattern.mask, start=1) if b)
    vals = np.arange(1 << M)
    return vals[(vals & frozen_weight) == 0]


def bruteforce_symbol_topL(path_metrics, leaf_llrs, pattern: FrozenPattern, L: int):
    """Exhaustive symbol expansion: global top-L over every valid (path, symbol).

    path_metrics: (P,) or (B, P); leaf_llrs: matching (..., M). Penalties are
    exact per-bit mismatch sums over the symbol's codeword; ties order by
    (metric, path index, symbol value). Returns (parents, symbols, metrics)
    with a leading batch axis.
    """
    if pattern.M > 16:
        raise ValueError("symbol width capped at 16")
    pm = np.atleast_2d(np.asarray(path_metrics, dtype=np.float64))
    llr = np.asarray(leaf_llrs, dtype=np.float64)
    if llr.shape[-1] != pattern.M:
        raise ValueError("leaf LLR width does not match the pattern")
    llr = llr.reshape(pm.shape + (pattern.M,))
    syms = valid_symbols(pattern)
    bits = ((syms[:, None] >> np.arange(pattern.M - 1, -1, -1)) & 1).astype(np.uint8)
    cw = matrix_encode(bits)
    pen = _mismatch_penalty(llr, cw)  # (B, P, S)
    total = pm[:, :, None] + pen
    B, P, S = total.shape
    flat = total.reshape(B, P * S)  # path-major, symbols ascending within path
    keep = min(L, P * S)
    order = np.argsort(flat, axis=1, kind="stable")[:, :keep]
    parents = order // S
    symbols = syms[order % S]
    metrics = np.take_along_axis(flat, order, axis=1)
    return parents, symbols, metrics


def exhaustive_ml(code: PolarCode, llrs) -> np.ndarray:
    """Minimum-penalty codeword search over all 2^K inputs; returns u-hat.

    Penalty of a codeword is the channel-LLR mismatch sum; ties resolve to the
    smallest info word (ascending enumeration, first minimum wins).
    """
    if code.K > _ML_CAP:
        raise ValueError(f"exhaustive search capped at K={_ML_CAP}")
    llrs = np.asarray(llrs, dtype=np.float64)
    single = llrs.ndim == 1
    llrs = np.atleast_2d(llrs)
    info_pos = code.info_positions
    best_pen = np.full(llrs.shape[0], np.inf)
    best_u = np.zeros((llrs.shape[0], code.N), dtype=np.uint8)
    chunk = 1 << 14
    for start in range(0, 1 << code.K, chunk):
        vals = np.arange(start, min(start + chunk, 1 << code.K))
        u = np.zeros((len(vals), code.N), dtype=np.uint8)
        u[:, info_pos] = (vals[:, None] >> np.arange(code.K - 1, -1, -1)) & 1
        x = matrix_encode(u)
        mism = x[None, :, :] != hard_decision(llrs)[:, None, :]
        pen = (np.abs(llrs)[:, None, :] * mism).sum(axis=2)
        idx = pen.argmin(axis=1)
        upd = pen[np.arange(len(llrs)), idx] < best_pen
        best_pen[upd] = pen[np.arange(len(llrs)), idx][upd]
        best_u[upd] = u[idx[upd]]
    return best_u[0] if single else best_u


def plain_sc(code: PolarCode, llrs) -> np.ndarray:
    """Bit-serial successive cancellation, no node shortcuts.

    Accepts one LLR vector or a batch of rows; returns u-hat with frozen
    positions forced to zero. Ties (LLR exactly 0) decide 0.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    single = llrs.ndim == 1
    alpha = np.atleast_2d(llrs)
    if alpha.shape[1] != code.N:
        raise ValueError("LLR length does not match the code")
    mask = np.asarray(code.frozen_mask)
    uhat = np.zeros((alpha.shape[0], code.N), dtype=np.uint8)

    def walk(a, lo, hi):
        # returns the local codeword bits for this span
        if hi - lo == 1:
            if mask[lo]:
                u = np.zeros(a.shape[0], dtype=np.uint8)
            else:
                u = (a[:, 0] < 0).astype(np.uint8)
            uhat[:, lo] = u
            return u[:, None]
        ae, ao = a[:, 0::2], a[:, 1::2]
        fl = np.sign(ae) * np.sign(ao) * np.minimum(np.abs(ae), np.abs(ao))
        cl = walk(fl, lo, (lo + hi) // 2)
        gl = ao + (1.0 - 2.0 * cl) * ae
        cr = walk(gl, (lo + hi) // 2, hi)
        c = np.empty_like(np.broadcast_to(a, a.shape), dtype=np.uint8)
        c[:, 0::2] = cl ^ cr
        c[:, 1::2] = cr
        return c

    walk(alpha, 0, code.N)
    return uhat[0] if single else uhat
