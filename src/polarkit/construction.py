"""Frozen-set construction for erasure and Gaussian-approximated AWGN channels.

Two reliability recursions are provided:

* erasure channel: z' = 2z - z^2 (worse half) and z' = z^2 (better half),
  starting from the erasure probability; larger z = less reliable.
* AWGN via Gaussian approximation of the bit LLR mean: z' = tau^-1(1 - (1 -
  tau(z))^2) and z' = 2z, starting from the design-point mean LLR 2/sigma^2;
  larger z = more reliable.

Both recursions are evaluated through log-domain forms internally so that the
reliability *order* survives double precision at deep levels and extreme
parameters (plain doubles saturate at 0.0/1.0 and would tie channels that are
strictly ordered). The linear values exposed in ReliabilityTable.z match the
plain recursions wherever doubles can express them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import Bits, Construction, PolarCode, as_count
from .patterns import FREEZE_ORDER

TAU_BRANCH_POINT = 10.0
TAU_X_MIN = 1e-12
TAU_X_MAX = 1e7
_BISECT_ITERS = 100


def log_tau(x):
    """log tau(x) of the mean-LLR contraction, x > 0, analytic per branch;
    never underflows. Both quirks of the specified tau are kept: its branches
    disagree at the switch x=10 (0.03853 vs 0.03943), and the first exceeds
    1 for x < ~0.0481."""
    x = np.asarray(x, dtype=np.float64)
    lo = -0.4527 * np.power(x, 0.86) + 0.0218
    xs = np.maximum(x, TAU_BRANCH_POINT)  # keep the unused branch finite
    hi = -x / 4.0 + 0.5 * (np.log(np.pi) - np.log(xs)) + np.log1p(-10.0 / (7.0 * xs))
    out = np.where(x < TAU_BRANCH_POINT, lo, hi)
    return out if out.ndim else float(out)


_LOG_TAU_FIRST_AT_SPLIT = -0.4527 * 10.0**0.86 + 0.0218  # first-branch value at x=10


def _tau_inverse_log(ly):
    """Solve log_tau(x) = ly by bisection.

    The branch jump at x=10 makes tau non-monotone in a narrow window; values
    reachable from either branch resolve to the x<10 branch. Arguments below
    log_tau(TAU_X_MAX) clamp to TAU_X_MAX.
    """
    ly = np.asarray(ly, dtype=np.float64)
    first = ly > _LOG_TAU_FIRST_AT_SPLIT
    lo = np.where(first, TAU_X_MIN, TAU_BRANCH_POINT)
    hi = np.where(first, TAU_BRANCH_POINT, TAU_X_MAX)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        too_small = np.asarray(log_tau(mid)) > ly  # tau decreasing: above target -> x* right of mid
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    return np.where(ly < log_tau(TAU_X_MAX), TAU_X_MAX, 0.5 * (lo + hi))


@dataclass
class ReliabilityTable:
    """Per-level reliability values z[i][j] for 0 <= i <= n, 0 <= j < 2^i.

    Larger z is less reliable for the erasure recursion ('bec') and more
    reliable for the mean-LLR recursion ('awgn-ga'). _order_keys are the
    np.lexsort keys of level n, primary key last, that sort it least reliable
    first: (log(1 - z), -log z) for 'bec', whose log-domain values stay
    distinct where z rounds to 0 or 1, and (z[n],) for 'awgn-ga'."""

    channel: str  # "bec" | "awgn-ga"
    param: float
    n: int
    z: list  # z[i]: float array of length 2**i
    _order_keys: tuple

    def frozen_order(self) -> np.ndarray:
        """Level-n indices sorted least-reliable first (ties: smaller index)."""
        return np.lexsort((np.arange(1 << self.n), *self._order_keys))


def _halves(worse, better) -> np.ndarray:
    """The next level: child 2j is the worse half of channel j, 2j + 1 the better."""
    out = np.empty(2 * len(worse))
    out[0::2], out[1::2] = worse, better
    return out


def bec_reliability(n: int, eps: float) -> ReliabilityTable:
    """Erasure-probability recursion from z_0 = eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError("erasure probability must lie in (0, 1)")
    n = as_count("n", n, 1)
    lz, lb = np.array([np.log(eps)]), np.array([np.log1p(-eps)])  # log z, log(1 - z)
    z = [np.exp(lz)]
    for _ in range(n):
        # worse half: z' = z(2 - z), 1 - z' = (1 - z)^2
        # better half: z' = z^2, 1 - z' = (1 - z)(1 + z)
        lz, lb = (_halves(lz + np.log(2.0) + np.log1p(-0.5 * z[-1]), 2.0 * lz),
                  _halves(2.0 * lb, lb + np.log1p(z[-1])))
        z.append(np.exp(lz))
    return ReliabilityTable("bec", eps, n, z, (lb, -lz))


def ga_reliability(n: int, z0: float) -> ReliabilityTable:
    """Mean-LLR recursion from the design-point channel LLR mean z0 > 0."""
    n = as_count("n", n, 1)
    if not (z0 > 0 and np.isfinite(z0 * 2.0**n)):  # the best channel's mean is z0 * 2**n
        raise ValueError(f"z0 must be a finite number > 0 whose z0 * 2**n is finite, got {z0}")
    z = [np.array([float(z0)])]
    for _ in range(n):
        lt = log_tau(z[-1])
        # log(2t - t^2) = log t + log(2 - t); t may underflow, log1p(-0) is fine
        ly = lt + np.log(2.0) + np.log1p(-0.5 * np.exp(lt))
        z.append(_halves(_tau_inverse_log(ly), 2.0 * z[-1]))
    return ReliabilityTable("awgn-ga", z0, n, z, (z[n],))


def design_mean_llr(design_snr_db: float) -> float:
    """Starting LLR mean for code design at a given design SNR (Es/N0, dB).

    Rate-independent: z0 = 4 * 10^(snr/10). Design SNR and the simulation
    x-axis (Eb/N0) are different quantities; reports state both conventions.
    """
    try:
        z0 = 4.0 * 10.0 ** (design_snr_db / 10.0)
    except OverflowError:
        z0 = np.inf
    if not 0.0 < z0 < np.inf:  # NaN fails too
        raise ValueError(f"design SNR {design_snr_db} dB gives no finite LLR mean > 0")
    return z0


def select_frozen(table: ReliabilityTable, K: int, *, design_param: float | None = None,
                  crc_width: int = 0) -> PolarCode:
    """Freeze the N-K least reliable positions (ties freeze the smaller index)."""
    N = 1 << table.n
    K = as_count("K", K, 1, N - 1)
    mask = np.zeros(N, dtype=np.uint8)
    mask[table.frozen_order()[: N - K]] = 1
    meta = Construction(table.channel, table.param if design_param is None else design_param)
    return PolarCode(table.n, K, mask, construction=meta, crc_width=crc_width)


# ---------------------------------------------------------------------------
# Exact ordering verification

# Claimed within-block reliability orders (0-based offsets, least reliable
# first): the pattern catalog's freeze orders.
ORDER_2, ORDER_4, ORDER_8, ORDER_16 = (tuple(i - 1 for i in FREEZE_ORDER[m])
                                       for m in (2, 4, 8, 16))
# The three cross comparisons inside ORDER_16 that do not follow from ORDER_8
# alone (0-based level-4 pairs: larger first).
CROSS_16 = ((6, 9), (8, 3), (12, 7))


@dataclass
class OrderingReport:
    eps_count: int
    depth: int
    checks: int
    violations: list  # (eps, level, index_larger, index_smaller)
    # log10 of the least (larger - smaller) / larger over the passing
    # comparisons, from exact bit lengths: the margin itself underflows
    min_rel_margin_log10: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _level_pairs(level: int) -> list:
    """Comparison pairs (larger, smaller) the claimed orders make at a level
    of 2**level values: each order's adjacent pairs in every block of its
    size, then CROSS_16's in every block of 16."""
    size = 1 << level
    pairs = [(b + hi, b + lo) for order in (ORDER_2, ORDER_4, ORDER_8, ORDER_16)
             for b in range(0, size - len(order) + 1, len(order))
             for hi, lo in zip(order, order[1:])]
    return pairs + [(b + hi, b + lo) for b in range(0, size - 15, 16) for hi, lo in CROSS_16]


def _exact_eps(e) -> Fraction:
    """Grid value `e` as an exact rational in (0, 1), else ValueError."""
    try:
        if 0 < (eps := Fraction(e)) < 1:
            return eps
    except (TypeError, ValueError, OverflowError):  # inf, nan, "abc", None
        pass
    raise ValueError(f"grid values must be finite numbers in (0, 1), got {e!r}")


def verify_reliability_ordering(eps_grid, depth: int = 8) -> OrderingReport:
    """Check the erasure-recursion ordering claims with exact arithmetic.

    Each grid value is taken as an exact rational; every level value is an
    integer numerator over a common power denominator, so comparisons carry no
    rounding at any depth. Checks per level i:

    * every value strictly inside (0, 1) for i >= 1
    * pair order (i >= 1), quad order (i >= 2), octet order (i >= 3)
    * the 16-entry order including its cross comparisons (i >= 4)

    Violations are reported as (eps, level, larger_index, smaller_index) with
    1-based indices. The least relative margin (larger - smaller) / larger
    is reported, as its log10 to two decimals, for information only.
    """
    depth = as_count("depth", depth, 1, 10)
    violations = []
    min_rel_l10 = 0.0
    checks = 0
    log2_10 = 3.321928094887362
    grid = [_exact_eps(e) for e in eps_grid]
    pairs = [_level_pairs(level) for level in range(depth + 1)]
    for eps in grid:
        num = [eps.numerator]
        den = eps.denominator
        for level in range(1, depth + 1):
            num = [v for p in num for v in (2 * p * den - p * p, p * p)]  # worse, better half
            den = den * den
            checks += len(num) + len(pairs[level])
            violations += [(float(eps), level, j + 1, j + 1)
                           for j, p in enumerate(num) if not 0 < p < den]
            for hi, lo in pairs[level]:
                diff = num[hi] - num[lo]
                if diff <= 0:
                    violations.append((float(eps), level, hi + 1, lo + 1))
                    continue
                # log2(diff / num[hi]) exceeds this bound from bit lengths; the
                # exact log is taken only where the bound lies below the least so far
                if diff.bit_length() - 1 - num[hi].bit_length() < min_rel_l10 * log2_10:
                    min_rel_l10 = min(min_rel_l10, math.log10(diff) - math.log10(num[hi]))
    return OrderingReport(len(grid), depth, checks, violations, round(min_rel_l10, 2))


# ---------------------------------------------------------------------------
# Code description files

_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_NIBBLE = np.full(256, 16, dtype=np.uint8)  # ASCII code -> nibble; 16 marks no hex digit
_NIBBLE[_HEX] = _NIBBLE[np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)] = np.arange(16)


def _mask_to_hex(mask: Bits) -> str:
    """Nibble-per-character hex, low positions first within the string.

    Character k encodes positions 4k..4k+3 (0-based); bit j of the nibble is
    position 4k+j. Equivalently: bit i (1-based) of the little-endian integer
    sum(mask[i-1] << (i-1)) marks position i frozen. A mask of N = 2 takes
    one character whose two high bits are 0.
    """
    rows = np.zeros((-(-len(mask) // 4), 4), dtype=np.uint8)
    rows.flat[:len(mask)] = mask
    return _HEX[np.packbits(rows, axis=1, bitorder="little")[:, 0]].tobytes().decode()


def _mask_from_hex(s: str, N: int) -> Bits:
    if len(s) != -(-N // 4):
        raise ValueError("hex mask length does not match N")
    nibbles = _NIBBLE[np.frombuffer(s.encode("ascii", "replace"), dtype=np.uint8)]
    if (nibbles > 15).any():  # non-ASCII characters encode as "?"
        raise ValueError("hex mask holds a character that is not a hex digit")
    mask = np.unpackbits(nibbles[:, None], axis=1, count=4, bitorder="little").ravel()
    if mask[N:].any():
        raise ValueError("hex mask marks a position past N")
    return mask[:N]


def save_code_file(code: PolarCode, path) -> None:
    """Write the JSON code description (deterministic bytes for fixed input)."""
    doc = {
        "n": code.n,
        "N": code.N,
        "K": code.K,
        "channel": code.construction.channel if code.construction else "unknown",
        "design_param": code.construction.design_param if code.construction else None,
        "frozen_mask": _mask_to_hex(code.frozen_mask),
        "crc_width": code.crc_width,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# JSON types of a code file's fields; the last three may be missing.
_CODE_FIELDS = {"n": int, "N": int, "K": int, "frozen_mask": str, "crc_width": int,
                "channel": (str, type(None)), "design_param": (int, float, type(None))}


def load_code_file(path) -> PolarCode:
    """Read a code file written by save_code_file; a file of another shape
    raises ValueError naming the first field at fault."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"code file {path} does not hold a JSON object")
    doc = {"crc_width": 0, "channel": None, "design_param": None, **doc}
    for name, types in _CODE_FIELDS.items():
        if name not in doc:
            raise ValueError(f"code file {path} has no field {name!r}")
        if isinstance(doc[name], bool) or not isinstance(doc[name], types):
            raise ValueError(f"code file {path}: field {name!r} has the wrong type: {doc[name]!r}")
    mask = _mask_from_hex(doc["frozen_mask"], doc["N"])
    meta = None
    if doc["channel"] not in (None, "unknown"):
        meta = Construction(doc["channel"], doc["design_param"])
    return PolarCode(doc["n"], doc["K"], mask, construction=meta, crc_width=doc["crc_width"])
