"""Polar encoding, bit-reversal utilities, bit-level CRC, and the package's
two input rules: `as_bits` for bits and `as_count` for counts.

Bit vectors are 1-D numpy uint8 arrays with values in {0, 1}. Positions are
0-based in code; file formats and user-facing docs number bits from 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Bits = np.ndarray


def as_bits(x, ndims=(1,), error="bit vector must be a nonempty 1-D sequence of 0s and 1s"
            ) -> Bits:
    """`x` as a uint8 array, refused with ValueError(error) unless its ndim
    lies in `ndims`, its last axis is nonempty and every entry is 0 or 1.
    The entries are checked before the cast, which truncates 0.5 to 0: one
    max pass on uint8 input."""
    x = np.asarray(x)
    if x.ndim not in ndims or not x.shape[-1] or not (
            x.max(initial=0) <= 1 if x.dtype == np.uint8 else np.isin(x, (0, 1)).all()):
        raise ValueError(error)
    return x.astype(np.uint8, copy=False)


def as_count(name: str, value, lo: int, hi: int | None = None, span: str | None = None) -> int:
    """`value` as a Python int in lo..hi (no upper bound for None): any
    integer, numpy's included, but no bool, float or string. Otherwise a
    ValueError that names `name`; `span` labels the range in it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < lo or (hi is not None and count > hi):
        rule = f">= {lo}" if hi is None else f"lie in {span or f'{lo}..{hi}'}"
        raise ValueError(f"{name} must {rule}, got {count}")
    return count


def _log2_exact(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


@lru_cache(maxsize=None)
def bitrev_indices(n: int) -> np.ndarray:
    """Permutation p with p[i] = the n-bit reversal of i."""
    idx = np.arange(1 << n)
    rev = np.zeros_like(idx)
    for _ in range(n):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    return rev


def polar_transform(u) -> Bits:
    """Apply the polar generator (bit-reversal permutation, then the
    kernel butterfly) over GF(2) along the last axis.

    Accepts a single bit vector or a batch of rows. Involution: applying it
    twice gives back the input. Rows of N >= 8 bits are XOR-ed as words of
    eight bit bytes, viewed little-endian ("<u8") so byte j is bits 8j..8j+7
    on any host: stages whose half spans whole words XOR word slices, and
    the last three XOR byte j + h into byte j by a shift of 8h under a mask.
    """
    u = as_bits(u, range(1, 65), "polar_transform needs bits (0 or 1) along a last axis")
    # np.take writes a fresh C-ordered array, updated in place below; fancy
    # indexing on the last axis of a batch returns a transposed layout
    x = np.take(u, bitrev_indices(_log2_exact(u.shape[-1])), axis=-1)
    N = x.shape[-1]
    rows = x.reshape(-1, N).view("<u8") if N >= 8 else x.reshape(-1, N)
    span = rows.shape[-1]
    while span > 1:
        half = span // 2
        blocks = rows.reshape(-1, span)
        blocks[:, :half] ^= blocks[:, half:]
        span = half
    if N >= 8:
        tmp = np.empty_like(rows)  # reused: fresh temporaries this size page-fault
        for shift, mask in ((32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF),
                            (8, 0x00FF00FF00FF00FF)):
            np.right_shift(rows, shift, out=tmp)
            tmp &= mask
            rows ^= tmp
    return x


@dataclass(frozen=True)
class Construction:
    """How a frozen set was designed: channel family plus its parameter."""

    channel: str  # "bec" or "awgn-ga"
    design_param: float  # erasure probability, or design Eb/N0 in dB


@dataclass
class PolarCode:
    """Code description: length, frozen set, and construction metadata.

    K counts every non-frozen position, CRC bits included when crc_width > 0.
    """

    n: int
    K: int
    frozen_mask: Bits
    construction: Construction | None = None
    crc_width: int = 0

    def __post_init__(self):
        self.frozen_mask = as_bits(self.frozen_mask)
        self.n = as_count("n", self.n, 1)
        # n against the mask's length first: 1 << n of a huge n exhausts memory
        if self.n != len(self.frozen_mask).bit_length() - 1 or len(self.frozen_mask) != self.N:
            raise ValueError("frozen_mask length must equal 2**n")
        self.K = as_count("K", self.K, 1, self.N - 1)
        if int(self.frozen_mask.sum()) != self.N - self.K:
            raise ValueError("frozen_mask weight must equal N - K")
        self.crc_width = as_count("crc_width", self.crc_width, 0, self.K - 1)

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def info_positions(self) -> np.ndarray:
        """Indices of the K non-frozen positions, ascending."""
        return np.flatnonzero(self.frozen_mask == 0)

    @property
    def payload_bits(self) -> int:
        """Message bits per frame once CRC bits are set aside."""
        return self.K - self.crc_width

    @property
    def rate(self) -> float:
        return self.K / self.N


def encode(code: PolarCode, info) -> Bits:
    """Codeword of K info bits, or of each row of a (rows, K) bit matrix:
    the info bits fill the non-frozen positions in ascending order, and the
    frozen positions are zero."""
    error = f"info must be {code.K} bits, or a matrix of {code.K}-bit rows"
    info = as_bits(info, (1, 2), error)
    if info.shape[-1] != code.K:
        raise ValueError(error)
    u = np.zeros(info.shape[:-1] + (code.N,), dtype=np.uint8)
    u[..., code.info_positions] = info
    return polar_transform(u)


# ---------------------------------------------------------------------------
# CRC


@dataclass(frozen=True)
class CrcSpec:
    """Bit-level CRC parameters.

    `polynomial` is in normal form with the leading x**width term implicit;
    `init` and `xor_out` are register values in 0..2**width - 1.
    With reflect=True the register is run LSB-first (the zlib convention when
    the input bits are each byte's bits least-significant first).
    """

    width: int
    polynomial: int
    init: int
    xor_out: int
    reflect: bool = True

    def __post_init__(self):
        top = (1 << as_count("CRC width", self.width, 1, 64)) - 1
        as_count("polynomial", self.polynomial, 1, top, f"1..2**{self.width} - 1")
        for register in (self.init, self.xor_out):
            as_count("init and xor_out", register, 0, top, f"0..2**{self.width} - 1")


CRC32 = CrcSpec(width=32, polynomial=0x04C11DB7, init=0xFFFFFFFF, xor_out=0xFFFFFFFF)


def _reflect_int(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def _register_steps(reg: int, spec: CrcSpec, count: int) -> list:
    """`reg` followed by its next `count` values under zero input bits."""
    w = spec.width
    out = [reg]
    if spec.reflect:
        poly = _reflect_int(spec.polynomial, w)
        for _ in range(count):
            reg = (reg >> 1) ^ (poly if reg & 1 else 0)
            out.append(reg)
    else:
        mask, top = (1 << w) - 1, 1 << (w - 1)
        for _ in range(count):
            reg = ((reg << 1) & mask) ^ (spec.polynomial if reg & top else 0)
            out.append(reg)
    return out


@lru_cache(maxsize=16)
def _crc_table(spec: CrcSpec, nbits: int):
    """(T, c) with register = c ^ XOR_b T[b, byte b] for every nbits-bit row,
    its bits packed into bytes by `np.packbits` (first bit in the MSB).

    The register is affine in the input bits over GF(2): a one at input j
    enters as the feedback polynomial and then shifts through the remaining
    nbits - 1 - j zero-input steps, and the initial value shifts through all
    nbits steps. So O(nbits) register steps give each bit's share, and
    T[b, v] XORs the shares of the bits set in byte value v at byte b. The
    zero bits that pad the last byte have no share. c holds the initial
    value's share and xor_out.
    """
    poly = _reflect_int(spec.polynomial, spec.width) if spec.reflect else spec.polynomial
    nbytes = -(-nbits // 8)
    share = np.zeros(nbytes * 8, dtype=np.uint64)
    share[:nbits] = _register_steps(poly, spec, nbits - 1)[::-1]
    share = share.reshape(nbytes, 8)
    values = np.arange(256)
    T = np.zeros((nbytes, 256), dtype=np.uint64)
    for k in range(8):
        T ^= np.where((values >> (7 - k)) & 1, share[:, k, None], np.uint64(0))
    T.setflags(write=False)
    return T, np.uint64(_register_steps(spec.init, spec, nbits)[-1] ^ spec.xor_out)


def _bit_rows(bits) -> np.ndarray:
    """`bits` as a matrix of rows, refused unless a nonempty bit vector or a
    matrix of nonempty bit rows (zero rows of them included)."""
    return np.atleast_2d(as_bits(bits, (1, 2), "CRC input must be a nonempty bit vector or a "
                                 "matrix of nonempty bit rows"))


def crc_remainder_rows(rows, spec: CrcSpec = CRC32) -> np.ndarray:
    """CRC register value (uint64, xor_out applied) of each row of a bit
    matrix, or of one bit vector."""
    return _crc_registers(_bit_rows(rows), spec)


def _crc_registers(rows: np.ndarray, spec: CrcSpec) -> np.ndarray:
    """crc_remainder_rows of a checked bit matrix: one `_crc_table` entry
    per byte of the packed row, XOR-ed together."""
    T, c = _crc_table(spec, rows.shape[1])
    packed = np.packbits(rows, axis=1)
    return np.bitwise_xor.reduce(T[np.arange(T.shape[0]), packed], axis=1) ^ c


def _crc_tails(rows: np.ndarray, spec: CrcSpec) -> np.ndarray:
    """The `spec.width` CRC bits of each row of a checked bit matrix, LSB
    first for reflected CRCs and MSB first for unreflected ones."""
    shifts = np.arange(spec.width, dtype=np.uint64)
    if not spec.reflect:
        shifts = shifts[::-1]
    regs = _crc_registers(rows, spec)
    return ((regs[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def crc_append(info, spec: CrcSpec = CRC32) -> Bits:
    """Append the CRC of `info` (one bit vector, or each row of a bit
    matrix), giving len + width bits per row."""
    rows = _bit_rows(info)
    out = np.concatenate([rows, _crc_tails(rows, spec)], axis=1)
    return out if np.ndim(info) == 2 else out[0]


def crc_check_rows(payloads, spec: CrcSpec = CRC32) -> np.ndarray:
    """True for each row (of a bit matrix, or of one bit vector) whose
    trailing `spec.width` bits match the CRC of the rest."""
    payloads = _bit_rows(payloads)
    if payloads.shape[1] <= spec.width:
        raise ValueError("payload shorter than CRC width")
    body, tail = payloads[:, : -spec.width], payloads[:, -spec.width :]
    return (_crc_tails(body, spec) == tail).all(axis=1)
