"""Frozen-location patterns of M-bit symbols and leaf-node classification.

A pattern is written as a string of 'F' (frozen) and 'D' (data) characters,
first bit of the symbol first. Splitting a symbol into adjacent bit pairs
gives the pair alphabet {FF, FD, DD, DF}; well-constructed codes never
produce 'DF', and the counts of 'FD' and 'DD' pairs (beta and gamma below)
drive the cost of the symbol expansion unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import PolarCode, as_bits, as_count


class NodeKind(enum.Enum):
    RATE0 = "rate0"
    RATE1 = "rate1"
    REPETITION = "repetition"
    RATE_R2 = "rate-r2"
    OTHER = "other"


# Freeze order inside one block: position k of the tuple is frozen k-th
# (1-based positions). Prefixes of these orders are the only patterns a
# reliability-sorted construction can produce.
FREEZE_ORDER = {
    2: (1, 2),
    4: (1, 2, 3, 4),
    8: (1, 2, 3, 5, 4, 6, 7, 8),
    16: (1, 2, 3, 5, 9, 4, 6, 7, 10, 11, 13, 8, 12, 14, 15, 16),
}


# The catalog of each symbol width M, {M: patterns}: the M + 1 prefixes of its freeze order.
CATALOGS = {M: tuple("".join("F" if i in order[:k] else "D" for i in range(1, M + 1))
                     for k in range(M + 1)) for M, order in FREEZE_ORDER.items()}

# The six mixed eight-bit patterns: the prefixes of one to six frozen bits.
RATE_R2_PATTERNS = CATALOGS[8][1:-2]


def classify_node(mask) -> NodeKind:
    """Leaf class of a frozen mask (1 = frozen), any even span.

    Repetition covers exactly the eight-bit F...FD mask and its sixteen-bit
    counterpart; the six mixed eight-bit patterns are RATE_R2; everything
    else that is not all-frozen / all-data is OTHER.
    """
    bits = tuple(int(b) for b in mask)
    s = "".join("F" if b else "D" for b in bits)
    if all(b == 1 for b in bits):
        return NodeKind.RATE0
    if all(b == 0 for b in bits):
        return NodeKind.RATE1
    if s in (CATALOGS[8][-2], CATALOGS[16][-2]):
        return NodeKind.REPETITION
    if s in RATE_R2_PATTERNS:
        return NodeKind.RATE_R2
    return NodeKind.OTHER


@dataclass(frozen=True)
class FrozenPattern:
    """One M-bit frozen mask with its pair decomposition.

    omega01 / omega11 are the 1-based pair indices whose pairs read 'FD' and
    'DD'; beta and gamma are their counts.
    """

    mask: tuple
    omega01: tuple
    omega11: tuple
    kind: NodeKind

    @classmethod
    def from_mask(cls, mask) -> "FrozenPattern":
        bits = tuple(as_bits(mask, error="pattern must be a nonempty vector of bits").tolist())
        if len(bits) % 2:
            raise ValueError("pattern length must be even")
        o01, o11 = [], []
        for i in range(len(bits) // 2):
            pair = (bits[2 * i], bits[2 * i + 1])
            if pair == (1, 0):
                o01.append(i + 1)
            elif pair == (0, 0):
                o11.append(i + 1)
        return cls(bits, tuple(o01), tuple(o11), classify_node(bits))

    @classmethod
    def from_string(cls, s: str) -> "FrozenPattern":
        if set(s) - {"F", "D"}:
            raise ValueError("pattern string must contain only 'F' and 'D'")
        return cls.from_mask([1 if c == "F" else 0 for c in s])

    @property
    def string(self) -> str:
        return "".join("F" if b else "D" for b in self.mask)

    @property
    def M(self) -> int:
        return len(self.mask)

    @property
    def beta(self) -> int:
        return len(self.omega01)

    @property
    def gamma(self) -> int:
        return len(self.omega11)

    @property
    def has_df_pair(self) -> bool:
        """True if some pair reads 'DF' (data bit directly before a frozen bit)."""
        return any(self.mask[2 * i] == 0 and self.mask[2 * i + 1] == 1
                   for i in range(self.M // 2))


def extract_patterns(code: PolarCode, M: int):
    """Per-symbol patterns of a code plus the set of distinct mask strings."""
    if M not in (2, 4, 8, 16):
        raise ValueError("M must be one of 2, 4, 8, 16")
    M = as_count("M", M, 2, 16)  # 8.0 is in (2, 4, 8, 16)
    if code.N % M:
        raise ValueError("M must divide the code length")
    mask = np.asarray(code.frozen_mask)
    symbols = [FrozenPattern.from_mask(mask[k : k + M]) for k in range(0, code.N, M)]
    census = {p.string for p in symbols}
    return symbols, census


def census_over_all_k(frozen_order: np.ndarray, M_values=(2, 4, 8, 16)) -> dict:
    """Distinct patterns over every K of one reliability order.

    Freezes one position at a time in `frozen_order` (the K = N-1 ... 1 codes)
    and records the touched symbol's mask after each step; untouched symbols
    keep masks already recorded earlier. The all-data pattern is seeded for
    block counts > 1 since any single freeze leaves some symbol all-data.
    """
    N = len(frozen_order)
    mask = np.zeros(N, dtype=np.uint8)
    census = {M: set() for M in M_values}
    for M in M_values:
        if N > M:
            census[M].add("D" * M)
    for step, pos in enumerate(frozen_order):
        mask[pos] = 1
        if step == N - 1:
            break  # K = 0 is not a code
        for M in M_values:
            base = (pos // M) * M
            chunk = mask[base : base + M]
            census[M].add("".join("F" if b else "D" for b in chunk))
    return census
