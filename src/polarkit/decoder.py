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

Path state lives in parallel arrays over (frame batch, list), and the walk
holds none of it between calls: each subtree returns, with its partial sums,
the survivors' path metrics and the path each survivor descends from, and
its parent node applies those indices to what it still holds: it reads its
LLRs in that order after the left child, and reorders the left child's
partial sums after the right child. The walk carries no input bits: the
transform is its own inverse, so u is the transform of the root's partial
sums. One walk serves the list and lone paths, and each leaf decodes in one
step. Paths decode alone from `ModeConfig.switch_point` on: everywhere at
list size one, else from the mode4_1 switching point. There a leaf takes
every path's own best candidate, keyed by its penalty alone: no path moves,
and a rate-1 leaf is its hard decision. So at list size one 'bitwise' is
classic SC on any LLRs, and 'fast' differs from it only where the rate-1 and
repetition shortcuts meet LLRs of zero.

LLR memory: the walk holds one node's LLRs per depth of the current path. A
node takes them over from its parent, which keeps no reference to them,
holds them while its left subtree decodes, and drops them before its right
subtree starts. Every branch reads its LLRs through `_read`, in frame blocks
of at most _BLOCK_LLRS LLRs, and writes f's or g's output block by block; g
applies the survivors' path order as it reads, one gathered block at a time.
Where the list fans out, a node's LLRs are a pair instead of an array: a
branch whose LLRs hold one path, whose left child's partial sums c hold three
paths or more and whose right child is a branch hands that child its own
LLRs and c instead of g of them (16 + A bytes per frame and position against
8A), and the child's reads compute g block by block, reordering c instead of
LLRs. Nothing the walk is given is written: neither the caller's LLRs nor a
pair's c, which the node that made the pair still reads for its own partial
sums.

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

__all__ = ["LEAF_SPAN", "ModeConfig", "decode_frames", "f_llr", "aml_expand_prune"]


def f_llr(a, b):
    """Check-node update: sign(a)sign(b)min(|a|,|b|)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    # the sign comes from a*b, which is NaN for 0*inf; min(|a|,|b|) is 0 there
    with np.errstate(invalid="ignore"):
        return _f(a[None], b[None])[0]  # a leading axis, so 0-d input gives a scalar


# Most LLRs of a node one block of `_read` holds.
_BLOCK_LLRS = 1 << 16


def _f(a, b, out=None):
    """f_llr on two arrays (ndim >= 1) of one shape, without its input
    handling: the walk's LLRs are clamped finite, so a*b is never NaN."""
    # two buffers instead of four temporaries: at decoder sizes allocating
    # fresh memory costs more than the arithmetic
    out = np.abs(a, out=out)
    tmp = np.abs(b)
    np.minimum(out, tmp, out=out)
    np.multiply(a, b, out=tmp)
    return np.copysign(out, tmp, out=out)


def _g(a, b, c, out=None):
    """Variable-node update b + (1 - 2c) * a into `out` (new where None) of
    the broadcast shape: LLRs a and b of one (frames, paths, n) shape, and
    uint8 partial sums c in {0, 1} of (frames, paths', n), one of the two
    path counts being 1 where they differ. (1 - 2c) * a is a with its sign
    bit flipped where c = 1, exactly, so three passes give the bytes of the
    formula."""
    if out is None:
        # the path axes decide, not the sizes: two empty batches have size 0
        out = np.empty(c.shape if c.shape[1] >= a.shape[1] else a.shape)
    u = out.view(np.uint64)
    # the sign bits go straight into out where c has its shape
    sign = np.left_shift(c, 63, dtype=np.uint64, out=u if c.shape == u.shape else None)
    np.bitwise_xor(sign, a.view(np.uint64), out=u)
    out += b
    return out


def _read(llrs, parent=None, c=None):
    """f of a node's LLRs or, given its left child's partial sums c, their g
    after the survivors' reorder: path j of frame b reads path parent[b, j]
    (parent None: no path moved). `llrs` is a (B, A, n) array or a fan-out
    pair (up, c_up), the one-path parent's (B, 1, 2n) LLRs and its left
    child's (B, A, n) partial sums, which stands for g of up's even and odd
    halves and c_up. Works in frame blocks of at most _BLOCK_LLRS of the
    node's LLRs (one frame where a frame holds more) and writes nothing it
    is given: the reorder gathers a block of the LLRs, or of c_up."""
    pair = type(llrs) is tuple
    B, A, n = (llrs[1] if pair else llrs).shape
    if A == 1:
        parent = None  # one path broadcasts: no order to apply
    paths = A if parent is None else parent.shape[1]
    if c is not None and c.shape[1] > paths:
        paths = c.shape[1]
    out = np.empty((B, paths, n // 2))
    step = _BLOCK_LLRS // (paths * n) or 1
    for i in range(0, B, step):
        s = slice(i, i + step)
        o = out[s]
        x = llrs[1][s] if pair else llrs[s]  # a pair reorders its c_up
        if parent is not None:
            x = x[np.arange(len(o))[:, None], parent[s]]
        if pair:
            up = llrs[0][s]
            x = _g(up[..., 0::2], up[..., 1::2], x)
        if c is None:
            _f(x[..., 0::2], x[..., 1::2], o)
        else:
            _g(x[..., 0::2], x[..., 1::2], c[s], o)
    return out


def _relu(x):
    return np.maximum(x, 0.0)


def _checked_llrs(llrs):
    """LLRs as float64: NaN raises ValueError, and values beyond
    +-BEC_LLR_CLAMP are clamped in a copy, so infinite inputs give finite
    metrics. In-range input is not copied: the walk writes only arrays it
    made."""
    llrs = np.asarray(llrs, dtype=np.float64)
    lo, hi = llrs.min(initial=0.0), llrs.max(initial=0.0)
    if np.isnan(lo):
        raise ValueError("LLRs must not be NaN")
    if not -BEC_LLR_CLAMP <= lo <= hi <= BEC_LLR_CLAMP:
        llrs = np.clip(llrs, -BEC_LLR_CLAMP, BEC_LLR_CLAMP)
    return llrs


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


# Each 4-bit codeword's index among bit-vector sums whose index bit j is position j
_CW4_ORDER = (_leaf_tables(4)[1] << np.arange(4)).sum(axis=1)


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


# ---------------------------------------------------------------------------
# Divide-and-conquer symbol expansion


class _ExpandPlan:
    """Index tables for one DF-free pattern.

    group_free[g, f] enumerates the half-symbol hypotheses consistent with
    FD-pair assignment g, ascending in f; sym_table[g, iv, ie] is the symbol
    value assembled from the iv-th and ie-th entries of that group.
    """

    def __init__(self, pattern: FrozenPattern):
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


def _rcc_tables(a):
    """Half-symbol penalty tables (t1, t2) of leaf LLRs a (..., 8).

    t1[i] is the mismatch penalty of the i-th pair-xor sub-symbol hypothesis
    against the left four LLRs; t2[i] the even sub-symbol hypothesis against
    the right four. The full-symbol penalty is t1[v] + t2[e].
    """
    # relu(-x) where a codeword has a 0, relu(x) where it has a 1: |x| over
    # sign mismatches in nonnegative terms, added in position order
    x = a.reshape(-1, 8).T  # positions on axis 0
    r = np.stack([_relu(-x), _relu(x)]).reshape(2, 2, 4, -1)  # (bit, half, position, row)
    pen = r[:, :, 0]
    for j in range(1, 4):  # position j's two terms on every sum so far
        pen = (r[:, None, :, j] + pen).reshape(2 << j, 2, x.shape[1])
    t1, t2 = pen[_CW4_ORDER].transpose(1, 2, 0)
    return t1.reshape(a.shape[:-1] + (16,)), t2.reshape(a.shape[:-1] + (16,))


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

    path_metrics is (P,) or (B, P), and leaf_llrs has its shape plus (M,);
    any other shape raises ValueError. Leaf LLRs follow decode_frames' rule:
    NaN raises ValueError, and values beyond +-BEC_LLR_CLAMP are clamped in a
    copy. Returns (parents, symbols, metrics); a leading batch axis mirrors
    the input.
    """
    if pattern.kind is not NodeKind.RATE_R2:
        raise ValueError("pattern must classify as a mixed (rate-R-2) node")
    q, L = as_count("q", q, 1), as_count("L", L, 1)
    pm = np.asarray(path_metrics, dtype=np.float64)
    llr = _checked_llrs(leaf_llrs)
    if pm.ndim not in (1, 2) or llr.shape != pm.shape + (pattern.M,):
        raise ValueError(f"path metrics of shape (P,) or (B, P) and leaf LLRs of their shape "
                         f"plus ({pattern.M},) expected, got {pm.shape} and {llr.shape}")
    single = pm.ndim == 1
    if single:
        pm, llr = pm[None], llr[None]
    pen, sym = _aml_candidates(*_rcc_tables(llr), _expand_plan(pattern.mask), q)
    parents, symbols, metrics = _top_l(pm, pen, sym, L)
    if single:
        return parents[0], symbols[0], metrics[0]
    return parents, symbols, metrics


# ---------------------------------------------------------------------------
# Other leaf expansions


def _rep_candidates(a):
    """(penalties, symbols) for the all-zero / all-one hypotheses."""
    pens = np.stack([_relu(-a).sum(axis=-1), _relu(a).sum(axis=-1)], axis=-1)
    return pens, np.array([0, 1], dtype=np.int64)


def _rate1_candidates(a):
    """(penalties, codewords) for the hard decision and flips of the two
    least reliable positions (first positions among equal magnitudes), each
    codeword packed into an integer, first position = MSB; candidate order
    is the enumeration order."""
    lead, M = a.shape[:-1], a.shape[-1]
    aT = a.reshape(-1, M).T  # positions on axis 0
    mag = np.abs(aT, out=np.empty(aT.shape))
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

    The arithmetic is the bit-serial tree walk's: f and g as in `_read`; an
    information bit is its hard decision x < 0, and its penalty, min(relu(x),
    relu(-x)) = +-0, would leave pm's bytes as they are (pm starts at +0 and
    is never -0); each frozen bit adds relu(-x) to pm in bit order. Under an
    all-frozen left half the partial sums are zero, so g is a + b. In the six
    mixed masks a half is all frozen only where the half before it is too.
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
        return None, pm
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
    flips) or RATE_R2 (divide-and-conquer expansion over `plan`). A 'fast'
    RATE_R2 leaf holds its frozen mask `sc_mask`, by which paths that decode
    alone decide it bit by bit (`_sc_leaf`); None keeps the joint decision.
    `codewords` maps the values the leaf's candidates carry to its codeword:
    symbol values, or for RATE1 the packed codewords themselves.
    """

    __slots__ = ("start", "span", "kind", "plan", "sc_mask", "codewords")

    def __init__(self, start, span, kind, plan=None, sc_mask=None):
        self.start, self.span, self.kind, self.plan = start, span, kind, plan
        self.sc_mask, self.codewords = sc_mask, None
        if kind is NodeKind.REPETITION:
            # symbol 1 sets the last input bit, whose codeword is all ones
            self.codewords = np.broadcast_to(np.arange(2, dtype=np.uint8)[:, None], (2, span))
        elif kind is NodeKind.RATE1:
            self.codewords = _leaf_tables(span)[0]
        elif kind is not NodeKind.RATE0:
            self.codewords = _leaf_tables(span)[1]


class _Branch:
    __slots__ = ("span", "left", "right")

    def __init__(self, span, left, right):
        self.span, self.left, self.right = span, left, right


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
                return _Leaf(start, span, NodeKind.RATE_R2, _expand_plan(fp.mask),
                             fp.mask if schedule == "fast" else None)
            if schedule == "fast" and fp.kind is not NodeKind.OTHER:
                return _Leaf(start, span, fp.kind)
        half = span // 2
        return _Branch(span, build(start, half), build(start + half, half))

    return build(0, len(mask))


# ---------------------------------------------------------------------------
# Batched list engine


class _ListDecoder:
    """Decodes a batch of frames at one checked operating point (ModeConfig).

    The walk keeps no state: the path metrics and the path order travel with
    the partial sums that `_walk` returns for every subtree, and
    `_pick_winner` derives u at the root. Every leaf decodes in `_leaf`.
    """

    def __init__(self, code: PolarCode, cfg: ModeConfig):
        self.code, self.L, self.q = code, cfg.L, cfg.q
        self.theta = cfg.switch_point(code.N)
        self.tree = _build_tree(code.frozen_mask.tobytes(), cfg.schedule)

    def _leaf(self, node: _Leaf, alpha, pm):
        """(c, parents, pm) of one leaf, as `_walk` returns them, from its
        LLRs alpha and the path metrics pm of its entry paths. A rate-0 leaf
        adds its fixed penalty. Below theta the list is pruned to the L first
        (pm + penalty) candidates over all paths. From theta on paths decode
        alone: each takes its own best candidate and no path moves. The key
        is the penalty alone, not pm + penalty, where a rounding residue of g
        can vanish: so it does not depend on theta, and bit by bit it is SC.
        Ties go to the first candidate, so a rate-1 leaf is its hard
        decision; a leaf with an `sc_mask` is decided bit by bit."""
        if node.kind is NodeKind.RATE0:
            c = np.zeros((alpha.shape[0], 1, node.span), dtype=np.uint8)
            return c, None, pm + _relu(-alpha).sum(axis=-1)
        alone = node.start >= self.theta
        if node.kind is NodeKind.RATE1:
            if alone:
                # the hard decision has penalty +0.0 and comes first: it always wins
                return (alpha < 0).view(np.uint8), None, pm
            pens, syms = _rate1_candidates(alpha)
        elif node.kind is NodeKind.REPETITION:
            pens, syms = _rep_candidates(alpha)
        elif alone and node.sc_mask is not None:
            c, pm = _sc_leaf(alpha, node.sc_mask, pm)
            return c, None, pm
        else:
            pens, syms = _aml_candidates(*_rcc_tables(alpha), node.plan, self.q)
        syms = np.broadcast_to(syms, pens.shape)
        if not alone:
            parents, sym, pm = _top_l(pm, pens, syms, self.L)
            return node.codewords[sym], parents, pm
        best = pens.argmin(axis=-1)[..., None]
        sym = np.take_along_axis(syms, best, -1)[..., 0]
        return node.codewords[sym], None, pm + np.take_along_axis(pens, best, -1)[..., 0]

    def _walk(self, node, held, pm):
        """Decode the subtree under `node` from its LLRs, the one entry of
        the list `held` (an array, or at a branch a fan-out pair; see
        `_read`), given in the path order at entry, and from pm, the entry
        paths' metrics. The walk takes the LLRs out of `held` and owns them
        from then on: where the caller keeps no other reference, they are
        freed once their last reader is done. (A plain argument stays
        referenced by the caller until the call returns: under the name that
        holds g's output while the caller drops its own LLRs, and before
        Python 3.11 on the caller's stack.) Returns (c, parents, pm): the
        partial sums of the surviving paths, for each survivor the entry path
        it descends from (None where no prune moved a path), and the
        survivors' metrics. A path axis of length one holds one value for
        every path; it broadcasts."""
        alpha = held.pop()
        if isinstance(node, _Leaf):
            return self._leaf(node, alpha, pm)
        c_left, p_left, pm = self._walk(node.left, [_read(alpha)], pm)
        if (type(alpha) is not tuple and alpha.shape[1] == 1 and c_left.shape[1] >= 3
                and isinstance(node.right, _Branch)):
            right = [(alpha, c_left)]  # the list fans out: the right child's reads make g
        else:
            right = [_read(alpha, p_left, c_left)]
        del alpha  # only g, or the fan-out pair, still needs it
        c_right, p_right, pm = self._walk(node.right, right, pm)
        parents = p_left
        if p_right is not None:
            rows = np.arange(len(p_right))[:, None]
            if c_left.shape[1] != 1:
                c_left = c_left[rows, p_right]
            parents = p_right if p_left is None else p_left[rows, p_right]
        c = np.empty((c_right.shape[0], max(c_left.shape[1], c_right.shape[1]), node.span),
                     dtype=np.uint8)
        c[..., 0::2] = c_left ^ c_right
        c[..., 1::2] = c_right
        return c, parents, pm

    # -- public ----------------------------------------------------------------

    def decode(self, llrs, crc: CrcSpec | None = None):
        llrs = _checked_llrs(llrs)
        if llrs.ndim != 2 or llrs.shape[1] != self.code.N:
            raise ValueError(f"LLRs must be a (frames, {self.code.N}) array")
        held, pm = [llrs[:, None, :]], np.zeros((len(llrs), 1))
        del llrs  # a clamped copy is freed after the root's last read of it
        c_all, _, pm = self._walk(self.tree, held, pm)
        return self._pick_winner(c_all, pm, crc)

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
        """Where paths start to decode alone on a length-N code: 0 at list
        size one, else theta, or N without one. The one check of theta <= N,
        made first."""
        if self.theta is not None and self.theta > N:
            raise ValueError(f"theta must lie in 0..N ({N})")
        if self.L == 1:
            return 0
        return N if self.theta is None else self.theta

    @property
    def effective_theta(self) -> int | None:
        """theta, under the name the benchmark harness still reads."""
        return self.theta
