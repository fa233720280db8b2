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

from .patterns import EIGHT_BIT_PATTERNS, RATE_R2_PATTERNS, SIXTEEN_BIT_PATTERNS, FrozenPattern

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
    if method == "dnc9":
        catalog = {8: EIGHT_BIT_PATTERNS, 16: SIXTEEN_BIT_PATTERNS}[M]
    else:  # lcaml
        catalog = RATE_R2_PATTERNS
    out = []
    for s in catalog:
        fp = FrozenPattern.from_string(s)
        out.append((fp.beta, fp.gamma))
    return out


def _sorter_units(frm: int, to: int) -> int:
    # binary-tree decomposition into 2*to -> to stages
    return frm // to - 1


def count_ops(method: str, M: int, q: int) -> CostReport:
    """Worst-case per-list cost of one expansion method."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if M not in (8, 16):
        raise ValueError("M must be 8 or 16")
    if q < 1:
        raise ValueError("q must be >= 1")
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

    step0 = 2 * _table_cost(M // 2)
    universe = _beta_gamma_universe(method, M)
    step2 = max(min(q, 1 << g) ** 2 * (1 << b) for b, g in universe)
    sorts = []
    if step2 > q:
        sorts.append((step2, q, 1))
    stage1 = [(1 << g, min(q, 1 << g), 2 << b) for b, g in universe if (1 << g) > q]
    if stage1:
        frm, to, cnt = max(stage1, key=lambda s: (_sorter_units(s[0], s[1]) * s[2], s[0]))
        sorts.append((frm, to, cnt))
    return CostReport(method, M, q, step0 + step2, tuple(sorts),
                      step0_multiplications=step0, step2_multiplications=step2)


def pattern_cost(pattern: FrozenPattern, q: int) -> CostReport:
    """Per-list cost of the divide-and-conquer unit on one specific pattern."""
    k = min(q, 1 << pattern.gamma)
    step0 = 2 * _table_cost(pattern.M // 2)
    step2 = k * k * (1 << pattern.beta)
    sorts = []
    if step2 > q:
        sorts.append((step2, q, 1))
    if (1 << pattern.gamma) > q:
        sorts.append(((1 << pattern.gamma), k, 2 << pattern.beta))
    return CostReport(f"dnc[{pattern.string}]", pattern.M, q, step0 + step2, tuple(sorts),
                      step0_multiplications=step0, step2_multiplications=step2)
