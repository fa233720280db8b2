"""LLR-domain successive cancellation list decoding on the code tree.

The decoder walks the binary code tree left to right with eight-bit leaf
symbols. Each leaf expands every surviving path into candidate symbols and the
list is pruned back to L survivors globally. Leaf handling depends on the
frozen pattern and the schedule:

* 'fast'    - all-frozen leaves add a fixed penalty; all-data leaves keep the
              hard decision plus flips of the two least reliable positions;
              F...FD leaves (eight- or sixteen-bit) are repetition nodes; the
              six mixed patterns go through the divide-and-conquer expansion
              unit; anything else decodes bit by bit. With list size one (and
              for each path after the mode4_1 switching point) a mixed-pattern
              leaf is decided in one SC pass straight over its eight LLRs
              (`_sc_leaf`, no subtree to walk), with the bit-serial walk's
              f, g and frozen penalties in bit order, so its words and path
              metrics equal 'bitwise' to the byte; the joint symbol decision
              is strictly better on a few percent of leaves and remains
              available through the 'dnc' schedule.
* 'dnc'     - every DF-free eight-bit pattern goes through the
              divide-and-conquer unit (exhaustive when q is large enough).
* 'bitwise' - no shortcuts; single-bit leaves (reference schedule).

Path state lives in parallel arrays over (frame batch, list). Nothing keeps
a global record of prunes: each subtree returns, with its partial sums, the
path each survivor descends from, and its parent node gathers the two arrays
it still holds (the node's LLRs after the left child, the left child's
partial sums after the right child) by those indices. The walk carries no
input bits: the transform is its own inverse, so u is the transform of the
root's partial sums. One walk serves the list and lone paths; each leaf
decides which it is. Where paths decode alone (list size one, or a leaf that
starts at or past the mode4_1 switching point) it takes every path's own
best candidate, keyed by its penalty alone: no path moves, and a rate-1 leaf
is its hard decision. So at list size one 'bitwise' is classic SC on any
LLRs, and 'fast' differs from it only where the rate-1 and repetition
shortcuts meet LLRs of zero.

Metric convention: penalties are nonnegative; the path metric accumulates
|llr| over positions where a hypothesis disagrees with the hard decision
(hard(0) = 0). Ties order by (metric, path index, candidate order); candidate
order within a path is (penalty, symbol value) for the expansion unit,
symbol value for repetition/single-bit leaves, and enumeration order
(no flip, flip 1st, flip 2nd, flip both) for all-data leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import BEC_LLR_CLAMP
from .core import CrcSpec, PolarCode, as_count, crc_check_rows, polar_transform
from .patterns import FrozenPattern, NodeKind, classify_node

LEAF_SPAN = 8

__all__ = [
    "LEAF_SPAN", "ModeConfig", "decode_frames", "f_llr", "leaf_metrics_rcc",
    "aml_expand_prune", "rate0_penalty", "rate1_candidates", "repetition_candidates",
]


def f_llr(a, b):
    """Check-node update: sign(a)sign(b)min(|a|,|b|)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    # the sign comes from a*b, which is NaN for 0*inf; min(|a|,|b|) is 0 there
    with np.errstate(invalid="ignore"):
        return _f(a[None], b[None])[0]  # a leading axis, so 0-d input gives a scalar


def _f(a, b):
    """f_llr on two arrays (ndim >= 1) of one shape, without its input
    handling: the walk's LLRs are clamped finite, so a*b is never NaN."""
    # two buffers instead of four temporaries: at decoder sizes allocating
    # fresh memory costs more than the arithmetic
    out, tmp = np.abs(a), np.abs(b)
    np.minimum(out, tmp, out=out)
    np.multiply(a, b, out=tmp)
    return np.copysign(out, tmp, out=out)


def _g(a, b, c):
    """Variable-node update b + (1 - 2c) * a, in one buffer of the broadcast
    shape: LLRs a and b of one (frames, paths, n) shape, and uint8 partial
    sums c in {0, 1} of (frames, paths', n), one of the two path counts
    being 1 where they differ. (1 - 2c) * a is a with its sign bit flipped
    where c = 1, exactly, so three passes give the bytes of the formula."""
    sign = np.left_shift(c, 63, dtype=np.uint64)
    # the path axes decide, not the sizes: two empty batches have size 0
    out = np.bitwise_xor(sign, a.view(np.uint64),
                         out=sign if sign.shape[1] >= a.shape[1] else None)
    out = out.view(np.float64)
    out += b
    return out


def _relu(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# Symbol tables


@lru_cache(maxsize=None)
def _leaf_tables(M: int):
    """(bits, codewords): rows indexed by symbol value, first bit = MSB."""
    syms = np.arange(1 << M)
    bits = ((syms[:, None] >> np.arange(M - 1, -1, -1)) & 1).astype(np.uint8)
    cw = polar_transform(bits)
    bits.setflags(write=False)
    cw.setflags(write=False)
    return bits, cw


@lru_cache(maxsize=None)
def _sym_of_ve(M: int) -> np.ndarray:
    """Symbol value from (pair-xor sub-symbol, even sub-symbol) values."""
    bits, _ = _leaf_tables(M)
    h = M // 2
    w = 1 << np.arange(h - 1, -1, -1)
    v = ((bits[:, 0::2] ^ bits[:, 1::2]) * w).sum(axis=1)
    e = (bits[:, 1::2] * w).sum(axis=1)
    table = np.zeros((1 << h, 1 << h), dtype=np.int64)
    table[v, e] = np.arange(1 << M)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _rep_codewords(span: int):
    """Codewords of a repetition leaf: symbol 1 sets the last input bit,
    whose codeword is all ones. Read-only."""
    return np.broadcast_to(np.arange(2, dtype=np.uint8)[:, None], (2, span))


# ---------------------------------------------------------------------------
# Divide-and-conquer symbol expansion


class _ExpandPlan:
    """Index tables for one DF-free pattern.

    group_free[g, f] enumerates the half-symbol hypotheses consistent with
    FD-pair assignment g, ascending in f; sym_table[g, iv, ie] is the symbol
    value assembled from the iv-th and ie-th entries of that group.
    """

    def __init__(self, pattern: FrozenPattern):
        if pattern.has_df_pair:
            raise ValueError("expansion plans require a DF-free pattern")
        self.pattern = pattern
        M = pattern.M
        h = M // 2
        fd = [i - 1 for i in pattern.omega01]
        dd = [i - 1 for i in pattern.omega11]
        weights = [1 << (h - 1 - i) for i in range(h)]
        G, F = 1 << len(fd), 1 << len(dd)
        group_free = np.zeros((G, F), dtype=np.int64)
        for g in range(G):
            base = sum(weights[p] for k, p in enumerate(fd) if (g >> (len(fd) - 1 - k)) & 1)
            for f in range(F):
                free = sum(weights[p] for k, p in enumerate(dd) if (f >> (len(dd) - 1 - k)) & 1)
                group_free[g, f] = base + free
        self.group_free = group_free
        ve = _sym_of_ve(M)
        # narrow: the candidate-major gather reads it through flat indices
        self.sym_table = ve[group_free[:, :, None], group_free[:, None, :]].astype(np.uint16)


@lru_cache(maxsize=None)
def _expand_plan(mask: tuple) -> _ExpandPlan:
    return _ExpandPlan(FrozenPattern.from_mask(mask))


# Tie keys of _first_k lie below this bound (symbol values and candidate
# indices are below 2^M).
_TIE_SPAN = 1 << LEAF_SPAN


def _first_k(key, k: int, tie=None):
    """(keys, ties) of the k entries of each column that come first in
    (key, tie) order, as (k, columns) arrays; `key` holds no NaN and is used
    as scratch.

    Candidates run along axis 0 and independent rows along the contiguous
    last axis, so every step is a short reduction over axis 0. `tie` holds
    integers in [0, _TIE_SPAN), distinct within a column, and broadcasts
    against `key`; None means the position on axis 0.
    """
    positional = tie is None
    if positional:
        tie = np.arange(key.shape[0])[:, None]
    rank = _TIE_SPAN - np.asarray(tie, dtype=np.uint16)  # in 1.._TIE_SPAN; the larger goes first
    cols = np.arange(key.shape[1])
    keys = np.empty((k, key.shape[1]))
    ranks = np.empty((k, key.shape[1]), dtype=np.uint16)
    for i in range(k):
        # taken entries hold NaN, which fmin skips and == never matches
        keys[i] = np.fmin.reduce(key, axis=0)
        hit = (key == keys[i]) * rank
        ranks[i] = hit.max(axis=0)
        if i + 1 == k:
            break
        if positional:
            key[_TIE_SPAN - ranks[i], cols] = np.nan
        else:
            key[hit == ranks[i]] = np.nan
    return keys, _TIE_SPAN - ranks


def leaf_metrics_rcc(llrs):
    """Half-symbol penalty tables (t1, t2) for eight leaf LLRs.

    t1[i] is the mismatch penalty of the i-th pair-xor sub-symbol hypothesis
    against the left four LLRs; t2[i] the even sub-symbol hypothesis against
    the right four. The full-symbol penalty is t1[v] + t2[e].
    """
    a = np.asarray(llrs, dtype=np.float64)
    if a.shape[-1] != LEAF_SPAN:
        raise ValueError(f"expected {LEAF_SPAN} leaf LLRs, got {a.shape[-1]}")
    cw4 = _leaf_tables(4)[1].astype(np.float64)

    def half(x):
        # penalty(i) = sum(|x| over sign mismatches) = sum(relu(-x)) + cw[i] . x;
        # the two sums round apart, which can leave a zero penalty at -eps
        pen = _relu(-x).sum(axis=-1)[..., None] + x @ cw4.T
        return np.maximum(pen, 0.0, out=pen)

    return half(a[..., :4]), half(a[..., 4:])


def _aml_candidates(t1, t2, plan: _ExpandPlan, q: int):
    """Top-q (penalty, symbol) candidates per path from half-symbol tables.

    Exact: for each FD-pair assignment the best min(q, 2^gamma) entries of
    each half table generate every sum that can reach the global top q.
    """
    G, F = plan.group_free.shape
    k = min(q, F)
    lead = t1.shape[:-1]
    R = int(np.prod(lead))
    # candidate-major: half-symbol hypotheses on axis 0, (group, row) after
    t1g = np.ascontiguousarray(t1.reshape(R, t1.shape[-1]).T)[plan.group_free.T]  # (F, G, R)
    t2g = np.ascontiguousarray(t2.reshape(R, t2.shape[-1]).T)[plan.group_free.T]
    if k < F:
        # per group, the k best of each half table by (penalty, position)
        t1s, o1 = (a.reshape(k, G, R) for a in _first_k(t1g.reshape(F, G * R), k))
        t2s, o2 = (a.reshape(k, G, R) for a in _first_k(t2g.reshape(F, G * R), k))
    else:
        o1 = o2 = np.arange(F, dtype=np.uint16)[:, None, None]
        t1s, t2s = t1g, t2g
    pen = t1s[:, None] + t2s[None, :]  # (k, k, G, R)
    g_off = (np.arange(G, dtype=np.uint16) * F * F)[:, None]
    sym = plan.sym_table.take((o1 * F + g_off)[:, None] + o2[None, :])
    C = G * k * k
    q_eff = min(q, C)
    # candidate order: (penalty, symbol value); symbols are distinct per row
    pen, sym = _first_k(pen.reshape(C, R), q_eff, sym.reshape(C, sym.shape[-1]))
    return pen.T.reshape(lead + (q_eff,)), sym.T.astype(np.int64).reshape(lead + (q_eff,))


def _top_l(pm, pens, syms, L: int):
    """Global prune to the L smallest pm[path] + pens[path, candidate].

    pm is (B, A); pens and syms are (B, A, C). Ties order by (metric, path
    index, candidate order). Returns (parents, symbols, metrics), each
    (B, min(L, A*C)).
    """
    B, A, C = pens.shape
    flat = (pm[:, :, None] + pens).reshape(B, A * C)
    order = np.argsort(flat, axis=1, kind="stable")[:, :L]
    rows = np.arange(B)[:, None]
    return order // C, syms.reshape(B, A * C)[rows, order], flat[rows, order]


def aml_expand_prune(path_metrics, leaf_llrs, pattern: FrozenPattern, q: int, L: int):
    """Expand paths over one mixed-pattern symbol and keep the best L.

    First stage: per path, the divide-and-conquer unit keeps its q best
    (penalty, symbol) candidates. Second stage: the L smallest accumulated
    metrics over all (path, candidate) pairs survive, ties ordered by
    (metric, path index, symbol value).

    Leaf LLRs are clamped to +-BEC_LLR_CLAMP, as decode_frames clamps
    channel LLRs, so infinite inputs give finite metrics; NaN raises
    ValueError there and here. Returns (parents, symbols, metrics); a leading
    batch axis mirrors the input (path_metrics may be (P,) or (B, P)).
    """
    if pattern.kind is not NodeKind.RATE_R2:
        raise ValueError("pattern must classify as a mixed (rate-R-2) node")
    q, L = as_count("q", q, 1), as_count("L", L, 1)
    pm = np.asarray(path_metrics, dtype=np.float64)
    single = pm.ndim == 1
    pm = np.atleast_2d(pm)
    llr = np.clip(np.asarray(leaf_llrs, dtype=np.float64), -BEC_LLR_CLAMP, BEC_LLR_CLAMP)
    if np.isnan(llr.sum()):
        raise ValueError("LLRs must not be NaN")
    llr = llr.reshape(pm.shape + (pattern.M,))
    t1, t2 = leaf_metrics_rcc(llr)
    pen, sym = _aml_candidates(t1, t2, _expand_plan(pattern.mask), q)
    parents, symbols, metrics = _top_l(pm, pen, sym, L)
    if single:
        return parents[0], symbols[0], metrics[0]
    return parents, symbols, metrics


# ---------------------------------------------------------------------------
# Other leaf expansions


def rate0_penalty(alpha):
    """Penalty of the all-zero hypothesis: sum of |llr| over negatives."""
    a = np.asarray(alpha, dtype=np.float64)
    return _relu(-a).sum(axis=-1)


def repetition_candidates(alpha):
    """(penalties, symbols) for the all-zero / all-one hypotheses."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape[-1] == 1:
        # one bit: summing a size-1 axis would cost more than the whole leaf
        pens = np.concatenate([_relu(-a), _relu(a)], axis=-1)
    else:
        pens = np.stack([_relu(-a).sum(axis=-1), _relu(a).sum(axis=-1)], axis=-1)
    return pens, np.array([0, 1], dtype=np.int64)


def rate1_candidates(alpha):
    """(penalties, codewords) for the hard decision and flips of the two
    least reliable positions (first positions among equal magnitudes), each
    codeword packed into an integer, first position = MSB; candidate order
    is the enumeration order. NaN raises ValueError, as in decode_frames."""
    a = np.asarray(alpha, dtype=np.float64)
    lead, M = a.shape[:-1], a.shape[-1]
    aT = a.reshape(-1, M).T  # positions on axis 0
    mag = np.abs(aT, out=np.empty(aT.shape))
    if np.isnan(mag.sum()):  # |x| sums to +inf at most: only a NaN makes it NaN
        raise ValueError("LLRs must not be NaN")
    (m1, m2), (i1, i2) = _first_k(mag, 2)
    pens = np.stack([np.zeros_like(m1), m1, m2, m1 + m2])
    w = 1 << np.arange(M - 1, -1, -1)
    packed = ((aT < 0) * w[:, None]).sum(axis=0)
    b1, b2 = w[i1], w[i2]
    cw_vals = np.stack([packed, packed ^ b1, packed ^ b2, packed ^ b1 ^ b2])
    return pens.T.reshape(lead + (4,)), cw_vals.T.reshape(lead + (4,))


def _sc_leaf(x, frozen, pm):
    """Classic SC over the bits of one leaf, straight from its LLRs x
    (..., n) and its mask `frozen` (1 = frozen); returns (partial sums, pm),
    partial sums None where every bit is frozen.

    The arithmetic is the bit-serial tree walk's: f and g as in `_walk`; an
    information bit is its hard decision x < 0, and its penalty, min(relu(x),
    relu(-x)) = +-0, would leave pm's bytes as they are (pm starts at +0 and
    is never -0); each frozen bit adds relu(-x) to pm in bit order. Under an
    all-frozen left half the partial sums are zero, so g is a + b.
    """
    if len(frozen) == 1:
        if frozen[0]:
            return None, pm + _relu(-x[..., 0])
        return (x < 0).view(np.uint8), pm
    h = len(frozen) // 2
    a, b = x[..., 0::2], x[..., 1::2]
    c_left, pm = _sc_leaf(_f(a, b), frozen[:h], pm)
    c_right, pm = _sc_leaf(a + b if c_left is None else _g(a, b, c_left), frozen[h:], pm)
    if c_right is None:
        if c_left is None:
            return None, pm
        c_right = np.zeros_like(c_left)
    c = np.empty(c_right.shape[:-1] + (2 * h,), dtype=np.uint8)
    c[..., 0::2] = c_right if c_left is None else c_left ^ c_right
    c[..., 1::2] = c_right
    return c, pm


# ---------------------------------------------------------------------------
# Schedule (tree plan)


class _Leaf:
    """One schedule leaf.

    kind is RATE0 (fixed penalty, nothing to decide), REPETITION (symbols 0
    and 1; also every single information bit), RATE1 (hard decision plus
    flips) or RATE_R2 (divide-and-conquer expansion over `plan`).
    `codewords` maps the values the leaf's candidates carry to its codeword:
    symbol values, or for RATE1 the packed codewords themselves.
    """

    __slots__ = ("start", "span", "kind", "plan", "codewords")

    def __init__(self, start, span, kind, plan=None):
        self.start, self.span, self.kind, self.plan = start, span, kind, plan
        self.codewords = None
        if kind is NodeKind.REPETITION:
            self.codewords = _rep_codewords(span)
        elif kind is NodeKind.RATE1:
            self.codewords = _leaf_tables(span)[0]
        elif kind is not NodeKind.RATE0:
            self.codewords = _leaf_tables(span)[1]


class _Branch:
    __slots__ = ("start", "span", "left", "right")

    def __init__(self, start, span, left, right):
        self.start, self.span, self.left, self.right = start, span, left, right


@lru_cache(maxsize=64)
def _build_tree(mask_bytes: bytes, schedule: str):
    mask = np.frombuffer(mask_bytes, dtype=np.uint8)

    def build(start, span):
        if span == 1:
            return _Leaf(start, 1, NodeKind.RATE0 if mask[start] else NodeKind.REPETITION)
        sub = mask[start : start + span]  # a view: read only where a node is classified
        if schedule == "fast" and span == 16 and classify_node(sub) is NodeKind.REPETITION:
            return _Leaf(start, span, NodeKind.REPETITION)
        if span == LEAF_SPAN and schedule != "bitwise":
            fp = FrozenPattern.from_mask(sub)
            if fp.kind is NodeKind.RATE0:
                return _Leaf(start, span, fp.kind)
            if fp.kind is NodeKind.RATE_R2 or (schedule == "dnc" and not fp.has_df_pair):
                return _Leaf(start, span, NodeKind.RATE_R2, _expand_plan(fp.mask))
            if schedule == "fast" and fp.kind is not NodeKind.OTHER:
                return _Leaf(start, span, fp.kind)
        half = span // 2
        return _Branch(start, span, build(start, half), build(start + half, half))

    return build(0, len(mask))


# ---------------------------------------------------------------------------
# Batched list engine


class _ListDecoder:
    """Decodes a batch of frames at one checked operating point (ModeConfig).

    The path order lives in one place: the (c, parents) that `_walk`
    returns for every subtree; `_pick_winner` derives u at the root. Every
    list prune goes through `_select` and every pick of a path that decodes
    alone through `_pick`; only rate-0 leaves change the path metrics
    elsewhere. Between decode() entry and exit the instance holds the path
    metrics of the current list, so one instance must not run concurrent
    decodes; decode_frames builds a fresh instance per call.
    """

    def __init__(self, code: PolarCode, cfg: ModeConfig):
        self.code, self.L, self.q = code, cfg.L, cfg.q
        self.theta = cfg.switch_point(code.N)
        self.tree = _build_tree(code.frozen_mask.tobytes(), cfg.schedule)
        # 'dnc' keeps the joint symbol decision for mixed leaves decoded alone
        self.joint = cfg.schedule == "dnc"

    def _alone(self, node) -> bool:
        """True where every path decodes by itself: list size one, or the
        per-path continuation after the mode switching point."""
        return self.L == 1 or node.start >= self.theta

    def _select(self, pens, syms):
        """List prune to the L first (pm + penalty) candidates over all
        paths; returns (symbols, parent), parent[b, j] being the path that
        survivor j descends from."""
        parent, sym_sel, self._pm = _top_l(self._pm, pens, np.broadcast_to(syms, pens.shape),
                                           self.L)
        return sym_sel, parent

    def _expand(self, node: _Leaf, alpha):
        """(penalties, symbols) of every path's candidates at a non-frozen
        leaf, by its kind; symbols broadcast against the penalties."""
        if node.kind is NodeKind.REPETITION:
            return repetition_candidates(alpha)
        if node.kind is NodeKind.RATE1:
            return rate1_candidates(alpha)
        return _aml_candidates(*leaf_metrics_rcc(alpha), node.plan, self.q)

    def _pick(self, node: _Leaf, alpha):
        """Each path's own best candidate at a non-frozen leaf where paths
        decode alone; returns the leaf's partial sums. The key is the penalty
        alone, not pm + penalty, where a rounding residue of g can vanish: so
        it does not depend on theta, and bit by bit it is SC. Ties go to the
        first candidate. A mixed leaf under 'fast' is decided as classic SC
        decides it, bit by bit (`_sc_leaf`)."""
        if node.kind is NodeKind.RATE1:
            # the hard decision has penalty +0.0 and comes first: it always wins
            return (alpha < 0).view(np.uint8)
        if node.kind is NodeKind.RATE_R2 and not self.joint:
            c, self._pm = _sc_leaf(alpha, node.plan.pattern.mask, self._pm)
            return c
        pens, syms = self._expand(node, alpha)
        best = pens.argmin(axis=-1)[..., None]
        self._pm = self._pm + np.take_along_axis(pens, best, -1)[..., 0]
        sym = np.take_along_axis(np.broadcast_to(syms, pens.shape), best, -1)[..., 0]
        return node.codewords[sym]

    def _walk(self, node, alpha):
        """Decode the subtree under `node` from its LLRs `alpha`, given in
        the path order at entry. Returns (c, parents): the partial sums of
        the surviving paths, and for each survivor the entry path it
        descends from (None where no prune moved a path). A path axis of
        length one holds one value for every path; it broadcasts. A leaf
        where paths decode alone goes to `_pick`; no path moves there."""
        if isinstance(node, _Leaf):
            if node.kind is NodeKind.RATE0:
                self._pm = self._pm + rate0_penalty(alpha)
                return np.zeros((alpha.shape[0], 1, node.span), dtype=np.uint8), None
            if self._alone(node):
                return self._pick(node, alpha), None
            sym, parent = self._select(*self._expand(node, alpha))
            return node.codewords[sym], parent
        rows = self._rows
        c_left, p_left = self._walk(node.left, _f(alpha[..., 0::2], alpha[..., 1::2]))
        if p_left is not None and alpha.shape[1] != 1:
            alpha = alpha[rows, p_left]
        c_right, p_right = self._walk(node.right, _g(alpha[..., 0::2], alpha[..., 1::2], c_left))
        parents = p_left
        if p_right is not None:
            if c_left.shape[1] != 1:
                c_left = c_left[rows, p_right]
            parents = p_right if p_left is None else p_left[rows, p_right]
        c = np.empty((alpha.shape[0], max(c_left.shape[1], c_right.shape[1]), node.span),
                     dtype=np.uint8)
        c[..., 0::2] = c_left ^ c_right
        c[..., 1::2] = c_right
        return c, parents

    # -- public ----------------------------------------------------------------

    def decode(self, llrs, crc: CrcSpec | None = None):
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.code.N:
            raise ValueError(f"LLRs must be a (frames, {self.code.N}) array")
        lo, hi = llrs.min(initial=0.0), llrs.max(initial=0.0)
        if np.isnan(lo):
            raise ValueError("LLRs must not be NaN")
        B = llrs.shape[0]
        # the walk never writes alpha, so in-range input is walked without a copy
        if not -BEC_LLR_CLAMP <= lo <= hi <= BEC_LLR_CLAMP:
            llrs = np.clip(llrs, -BEC_LLR_CLAMP, BEC_LLR_CLAMP)
        alpha = llrs[:, None, :]
        self._rows = np.arange(B)[:, None]
        self._pm = np.zeros((B, 1))
        c_all, _ = self._walk(self.tree, alpha)
        return self._pick_winner(c_all, self._pm, crc)

    def _pick_winner(self, c_all, pm_all, crc):
        """(u, metric, crc_ok) of each frame's winner from the root partial
        sums c_all (B, A, N); u = polar_transform(c), of the winners only
        unless the CRC must read every path's info bits."""
        B, A, _ = c_all.shape
        rows = np.arange(B)
        if crc is None:
            win = pm_all.argmin(axis=1)
            return polar_transform(c_all[rows, win]), pm_all[rows, win], None
        u_all = polar_transform(c_all)
        # np.take keeps rows C-ordered; fancy indexing on the last axis puts
        # the path axis innermost, and the CRC then packs strided bits
        info = np.take(u_all, self.code.info_positions, axis=2)
        passing = crc_check_rows(info.reshape(B * A, info.shape[-1]), crc).reshape(B, A)
        masked = np.where(passing, pm_all, np.inf)
        has = passing.any(axis=1)
        win = np.where(has, masked.argmin(axis=1), pm_all.argmin(axis=1))
        return u_all[rows, win], pm_all[rows, win], has


def decode_frames(code: PolarCode, llrs, *, L: int, q: int | None = None,
                  theta: int | None = None, schedule: str = "fast",
                  crc: CrcSpec | None = None):
    """Decode a (B, N) batch of independent frames with one list configuration.

    Each row is one received word, decoded with list size L; the batch plays
    the part of the chip's parallel words. q is the per-path expansion width
    (default min(L, 2^M)); from bit index theta on (mode4_1) each surviving
    path continues alone; with crc the best CRC-passing path wins. Returns
    (u, path_metrics, crc_ok): the (B, N) input estimates, the winners'
    metrics, and a (B,) bool array of CRC passes (None without crc). llrs is
    only read; LLRs beyond +-BEC_LLR_CLAMP are clamped in a copy. The
    keywords are checked as the ModeConfig they build.
    """
    cfg = ModeConfig.custom(L, q, theta=theta, schedule=schedule)
    return _ListDecoder(code, cfg).decode(llrs, crc=crc)


# ---------------------------------------------------------------------------
# Operating modes


@dataclass(frozen=True)
class ModeConfig:
    """Decoder operating point, checked when built and frozen after: mode,
    list size L, expansion width q, switching point theta, schedule. Only
    theta <= N waits for the code (`switch_point`).

    A named mode presets L (LIST_SIZES; mode1 is classic SC), which an
    explicit L overrides; 'custom' requires L. mode4_1 runs the list below
    theta, then each surviving path continues alone (per-path best
    candidate, no cross-path pruning) and the best final metric wins
    (CRC-passing preferred). Only mode4_1, which requires one, and custom
    take a theta, which must be >= 0. q defaults to min(L, 2^M).
    """

    mode: str = "mode4"
    L: int | None = None
    q: int | None = None
    theta: int | None = None
    schedule: str = "fast"

    LIST_SIZES = {"mode4": 4, "mode2": 2, "mode1": 1, "mode4_1": 4}
    SCHEDULES = ("fast", "dnc", "bitwise")

    def __post_init__(self):
        if self.mode not in (*self.LIST_SIZES, "custom"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.L is None:
            if self.mode == "custom":
                raise ValueError("custom requires a list size L")
            object.__setattr__(self, "L", self.LIST_SIZES[self.mode])
        object.__setattr__(self, "L", as_count("list size L", self.L, 1))
        if self.mode == "mode4_1" and self.theta is None:
            raise ValueError("mode4_1 requires a switching point theta")
        if self.theta is not None:
            if self.mode not in ("mode4_1", "custom"):
                raise ValueError(f"{self.mode} takes no theta (mode4_1 and custom do)")
            object.__setattr__(self, "theta", as_count("theta", self.theta, 0))
        q = min(self.L, 1 << LEAF_SPAN) if self.q is None else self.q
        object.__setattr__(self, "q", as_count("q", q, 1, 1 << LEAF_SPAN, "1..2^M"))
        if self.schedule not in self.SCHEDULES:
            raise ValueError(f"schedule must be one of {self.SCHEDULES}")

    @classmethod
    def mode1(cls, **kw):
        return cls("mode1", **kw)

    @classmethod
    def mode4_1(cls, theta: int, **kw):
        return cls("mode4_1", theta=theta, **kw)

    @classmethod
    def custom(cls, L: int, q: int | None = None, **kw):
        return cls("custom", L=L, q=q, **kw)

    def switch_point(self, N: int) -> int:
        """Where paths start to decode alone on a length-N code: theta, or N
        without one. The one check of theta <= N."""
        if self.theta is not None and self.theta > N:
            raise ValueError(f"theta must lie in 0..N ({N})")
        return N if self.theta is None else self.theta

    @property
    def effective_theta(self) -> int | None:
        """theta, under the name the benchmark harness still reads."""
        return self.theta
