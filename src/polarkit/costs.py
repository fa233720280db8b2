"""Symbolic operation counts for symbol-wise list expansion methods.

Counts are per list, in the probability-domain accounting where combining two
half-symbol table entries is one multiplication (the metric-domain decoder
performs an addition instead; the count is the same). A full table over w-bit
hypotheses built by recursive combination costs

    C(w) = 2^w + 2 C(w/2),   C(2) = 4, C(1) = 0

multiplications (4-bit table: 24; 8-bit: 304; and so on).

Methods:

* 'rcc'   - build the full 2^M-entry symbol table recursively: C(M)
            multiplications and one 2^M-to-q sort.
* 'dmm'   - direct product of M per-bit probabilities per entry:
            2^M (M-1) multiplications, one 2^M-to-q sort.
* 'drh'   - pair tables by one recursive combination level ((M/2)*4), then a
            direct product of M/2 pair entries per symbol value
            (2^M (M/2 - 1)); one 2^M-to-q sort.
* 'dnc81' - divide-and-conquer expansion sized for every DF-free pattern
            (3^(M/2) of them).
* 'dnc9'  - same unit sized for the reliability-order catalog (nine patterns
            at M=8, seventeen at M=16).
* 'lcaml' - same unit sized for the six mixed eight-bit patterns (M=8 only).

The divide-and-conquer unit costs, for a pattern with beta FD-pairs and gamma
DD-pairs and k = min(q, 2^gamma): Step 0 = 2 C(M/2) (both half tables);
Step 1 = 2^(beta+1) sorts of 2^gamma to k (omitted when 2^gamma <= q);
Step 2 = k^2 2^beta multiplications; Step 3 = one k^2 2^beta-to-q sort
(omitted when the input is no larger than q). Worst cases are taken per
resource over the pattern universe; competing Step-1 shapes are ranked by
their total 2q-to-q sorter-unit equivalents (a w-to-q sort decomposes into
w/q - 1 such units).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import as_count
from .patterns import CATALOGS, RATE_R2_PATTERNS, FrozenPattern

METHODS = ("rcc", "dmm", "drh", "dnc81", "dnc9", "lcaml")


@dataclass(frozen=True)
class CostReport:
    """Worst-case per-list operation counts of one method at (M, q)."""

    method: str
    M: int
    q: int
    multiplications: int
    sorts: tuple  # ((input_size, output_size, count), ...) largest first
    step0_multiplications: int = 0
    step2_multiplications: int = 0

    def describe(self) -> str:
        parts = [f"{self.multiplications} multiplications"]
        for frm, to, cnt in self.sorts:
            label = f"a {frm}-to-{to} sort" if cnt == 1 else f"{cnt} {frm}-to-{to} sorts"
            parts.append(label)
        return f"{self.method} (M={self.M}, q={self.q}): " + ", ".join(parts)


def _table_cost(w: int) -> int:
    if w <= 1:
        return 0
    return (1 << w) + 2 * _table_cost(w // 2)


def _beta_gamma_universe(method: str, M: int):
    """(beta, gamma) pairs the method's hardware must accommodate."""
    pairs = M // 2
    if method == "dnc81":
        return [(b, g) for b in range(pairs + 1) for g in range(pairs + 1 - b)]
    catalog = CATALOGS[M] if method == "dnc9" else RATE_R2_PATTERNS  # lcaml
    return [(fp.beta, fp.gamma) for fp in map(FrozenPattern.from_string, catalog)]


def _sorter_units(frm: int, to: int) -> int:
    # binary-tree decomposition into 2*to -> to stages
    return frm // to - 1


def count_ops(method: str, M: int, q: int) -> CostReport:
    """Worst-case per-list cost of one expansion method."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if M not in (8, 16):
        raise ValueError("M must be 8 or 16")
    M, q = as_count("M", M, 8, 16), as_count("q", q, 1)  # 8.0 is in (8, 16)
    if method == "lcaml" and M != 8:
        raise ValueError("the six-pattern unit is defined for M=8 only")

    if method in ("rcc", "dmm", "drh"):
        if method == "rcc":
            mult = _table_cost(M)
        elif method == "dmm":
            mult = (1 << M) * (M - 1)
        else:
            mult = (M // 2) * 4 + (1 << M) * (M // 2 - 1)
        return CostReport(method, M, q, mult, (((1 << M), q, 1),))

    costs = [_dnc_cost(method, M, q, b, g) for b, g in _beta_gamma_universe(method, M)]
    worst = max(costs, key=lambda c: c.step2_multiplications)
    # Step 3 is one sort of the Step-2 sums; Step 1 sorts come 2^(beta+1) at a time
    sorts = [s for s in worst.sorts if s[2] == 1]
    stage1 = [s for c in costs for s in c.sorts if s[2] > 1]
    if stage1:
        sorts.append(max(stage1, key=lambda s: (_sorter_units(s[0], s[1]) * s[2], s[0])))
    return CostReport(method, M, q, worst.multiplications, tuple(sorts),
                      step0_multiplications=worst.step0_multiplications,
                      step2_multiplications=worst.step2_multiplications)


def _dnc_cost(label: str, M: int, q: int, beta: int, gamma: int) -> CostReport:
    """Per-list cost of the divide-and-conquer unit on a pattern with beta
    FD-pairs and gamma DD-pairs."""
    k = min(q, 1 << gamma)
    step0 = 2 * _table_cost(M // 2)
    step2 = k * k << beta
    sorts = []
    if step2 > q:
        sorts.append((step2, q, 1))
    if (1 << gamma) > q:
        sorts.append((1 << gamma, k, 2 << beta))
    return CostReport(label, M, q, step0 + step2, tuple(sorts),
                      step0_multiplications=step0, step2_multiplications=step2)
