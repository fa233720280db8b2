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
    reliable for the mean-LLR recursion ('awgn-ga')."""

    channel: str  # "bec" | "awgn-ga"
    param: float
    n: int
    z: list  # z[i]: float array of length 2**i
    _order_keys: tuple | None = None  # backing arrays for exact-order sorting

    def frozen_order(self) -> np.ndarray:
        """Level-n indices sorted least-reliable first (ties: smaller index)."""
        idx = np.arange(1 << self.n)
        if self.channel == "bec":
            lz, lb = self._order_keys
            # descending z: primary -lz, then lb ascending, then index
            return np.lexsort((idx, lb, -lz))
        return np.lexsort((idx, self.z[self.n]))


def bec_reliability(n: int, eps: float) -> ReliabilityTable:
    """Erasure-probability recursion from z_0 = eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError("erasure probability must lie in (0, 1)")
    n = as_count("n", n, 1)
    lz = [np.array([np.log(eps)])]
    lb = [np.array([np.log1p(-eps)])]
    for _ in range(n):
        plz, plb = lz[-1], lb[-1]
        z = np.exp(plz)
        # worse half: z' = z(2 - z), 1 - z' = (1 - z)^2
        wlz = plz + np.log(2.0) + np.log1p(-0.5 * z)
        wlb = 2.0 * plb
        # better half: z' = z^2, 1 - z' = (1 - z)(1 + z)
        blz = 2.0 * plz
        blb = plb + np.log1p(z)
        nlz = np.empty(2 * len(plz))
        nlb = np.empty(2 * len(plz))
        nlz[0::2], nlz[1::2] = wlz, blz
        nlb[0::2], nlb[1::2] = wlb, blb
        lz.append(nlz)
        lb.append(nlb)
    zlin = [np.exp(a) for a in lz]
    return ReliabilityTable("bec", eps, n, zlin, (lz[n], lb[n]))


def ga_reliability(n: int, z0: float) -> ReliabilityTable:
    """Mean-LLR recursion from the design-point channel LLR mean z0 > 0."""
    n = as_count("n", n, 1)
    if not (z0 > 0 and np.isfinite(z0 * 2.0**n)):  # the best channel's mean is z0 * 2**n
        raise ValueError(f"z0 must be a finite number > 0 whose z0 * 2**n is finite, got {z0}")
    levels = [np.array([float(z0)])]
    for _ in range(n):
        z = levels[-1]
        lt = log_tau(z)
        t = np.exp(lt)
        # log(2t - t^2) = log t + log(2 - t); t may underflow, log1p(-0) is fine
        ly = lt + np.log(2.0) + np.log1p(-0.5 * t)
        worse = _tau_inverse_log(ly)
        better = 2.0 * z
        nxt = np.empty(2 * len(z))
        nxt[0::2], nxt[1::2] = worse, better
        levels.append(nxt)
    return ReliabilityTable("awgn-ga", z0, n, levels)


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
    min_abs_margin: float  # 0.0 means "below double precision", not a tie
    min_rel_margin: float
    min_rel_margin_log10: float = 0.0  # exact-order magnitude of the above

    @property
    def ok(self) -> bool:
        return not self.violations


def _chain_pairs(order, block, count):
    """Adjacent comparison pairs (larger, smaller) for each block of a level."""
    for b in range(count):
        base = b * block
        for a, c in zip(order, order[1:]):
            yield base + a, base + c


def verify_reliability_ordering(eps_grid, depth: int = 8) -> OrderingReport:
    """Check the erasure-recursion ordering claims with exact arithmetic.

    Each grid value is taken as an exact rational; every level value is an
    integer numerator over a common power denominator, so comparisons carry no
    rounding at any depth. Checks per level i:

    * every value strictly inside (0, 1) for i >= 1
    * pair order (i >= 1), quad order (i >= 2), octet order (i >= 3)
    * the 16-entry order including its cross comparisons (i >= 4)

    Violations are reported as (eps, level, larger_index, smaller_index) with
    1-based indices. Minimum margins (absolute and relative to the larger
    value) are reported for information only.
    """
    depth = as_count("depth", depth, 1, 10)
    violations = []
    min_abs = 1.0
    min_rel = 1.0
    min_rel_l10 = 0.0
    checks = 0
    log2_10 = 3.321928094887362
    grid = [Fraction(e) if not isinstance(e, Fraction) else e for e in eps_grid]
    for eps in grid:
        if not 0 < eps < 1:
            raise ValueError("grid values must lie in (0, 1)")
        num = [eps.numerator]
        den = eps.denominator
        for level in range(1, depth + 1):
            nxt = []
            for p in num:
                nxt.append(2 * p * den - p * p)  # worse half
                nxt.append(p * p)  # better half
            num = nxt
            den = den * den
            for j, p in enumerate(num):
                checks += 1
                if not 0 < p < den:
                    violations.append((float(eps), level, j + 1, j + 1))
            pairs = list(_chain_pairs(ORDER_2, 2, len(num) // 2))
            if level >= 2:
                pairs += list(_chain_pairs(ORDER_4, 4, len(num) // 4))
            if level >= 3:
                pairs += list(_chain_pairs(ORDER_8, 8, len(num) // 8))
            if level >= 4:
                pairs += list(_chain_pairs(ORDER_16, 16, len(num) // 16))
                pairs += [(b * 16 + hi, b * 16 + lo)
                          for b in range(len(num) // 16) for hi, lo in CROSS_16]
            for hi, lo in pairs:
                checks += 1
                diff = num[hi] - num[lo]
                if diff <= 0:
                    violations.append((float(eps), level, hi + 1, lo + 1))
                    continue
                if num[hi] > 0:
                    min_abs = min(min_abs, diff / den)
                    min_rel = min(min_rel, diff / num[hi])
                    min_rel_l10 = min(min_rel_l10,
                                      (diff.bit_length() - num[hi].bit_length()) / log2_10)
    return OrderingReport(len(grid), depth, checks, violations, float(min_abs),
                          float(min_rel), round(min_rel_l10, 2))


# ---------------------------------------------------------------------------
# Code description files

_HEX = "0123456789abcdef"


def _mask_to_hex(mask: Bits) -> str:
    """Nibble-per-character hex, low positions first within the string.

    Character k encodes positions 4k..4k+3 (0-based); bit j of the nibble is
    position 4k+j. Equivalently: bit i (1-based) of the little-endian integer
    sum(mask[i-1] << (i-1)) marks position i frozen.
    """
    out = []
    for k in range(0, len(mask), 4):
        nib = int(mask[k]) | int(mask[k + 1]) << 1 | int(mask[k + 2]) << 2 | int(mask[k + 3]) << 3
        out.append(_HEX[nib])
    return "".join(out)


def _mask_from_hex(s: str, N: int) -> Bits:
    if len(s) * 4 != N:
        raise ValueError("hex mask length does not match N")
    mask = np.zeros(N, dtype=np.uint8)
    for k, ch in enumerate(s):
        nib = int(ch, 16)
        for j in range(4):
            mask[4 * k + j] = (nib >> j) & 1
    return mask


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
