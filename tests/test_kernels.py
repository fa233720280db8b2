"""Differential tests: the sort-free leaf kernels against the sort-based forms
they replaced, kept here as oracles.

The production kernels select candidates by iterated minima over a
candidate-major layout; the oracles below sort each row with a stable
argsort. Both must give exactly the same (penalty, symbol) lists, including
the tie order, and whole decodes must be byte-identical with either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit import decoder
from polarkit.channel import BEC_LLR_CLAMP
from polarkit.decoder import (
    _aml_candidates,
    _expand_plan,
    _g,
    aml_expand_prune,
    f_llr,
    leaf_metrics_rcc,
    rate1_candidates,
)
from polarkit.patterns import RATE_R2_PATTERNS, FrozenPattern

from conftest import make_noisy_frames
from oracle import hard_decision

LLR_KINDS = ("gaussian", "integer", "zero", "huge", "inf")
Q_VALUES = (1, 2, 4, 8, 32)


def oracle_aml_candidates(t1, t2, plan, q):
    """Top-q (penalty, symbol) per path by stable sorts along the last axis."""
    G, F = plan.group_free.shape
    k = min(q, F)
    t1g = t1[..., plan.group_free]
    t2g = t2[..., plan.group_free]
    if k < F:
        o1 = np.argsort(t1g, axis=-1, kind="stable")[..., :k]
        o2 = np.argsort(t2g, axis=-1, kind="stable")[..., :k]
        t1s = np.take_along_axis(t1g, o1, axis=-1)
        t2s = np.take_along_axis(t2g, o2, axis=-1)
    else:
        o1 = o2 = np.broadcast_to(np.arange(F), t1g.shape)
        t1s, t2s = t1g, t2g
    pen = t1s[..., :, None] + t2s[..., None, :]
    sym = plan.sym_table[np.arange(G)[:, None, None], o1[..., :, None], o2[..., None, :]]
    C = G * k * k
    pen = pen.reshape(pen.shape[:-3] + (C,))
    sym = sym.reshape(sym.shape[:-3] + (C,))
    by_sym = np.argsort(sym, axis=-1, kind="stable")
    pen = np.take_along_axis(pen, by_sym, axis=-1)
    sym = np.take_along_axis(sym, by_sym, axis=-1)
    by_pen = np.argsort(pen, axis=-1, kind="stable")[..., :min(q, C)]
    return np.take_along_axis(pen, by_pen, axis=-1), np.take_along_axis(sym, by_pen, axis=-1)


def oracle_rate1_candidates(alpha):
    """Hard decision plus flips of the two first positions of a stable sort
    by magnitude."""
    a = np.asarray(alpha, dtype=np.float64)
    M = a.shape[-1]
    absa = np.abs(a)
    h = hard_decision(a)
    o = np.argsort(absa, axis=-1, kind="stable")[..., :2]
    m1 = np.take_along_axis(absa, o[..., 0:1], axis=-1)[..., 0]
    m2 = np.take_along_axis(absa, o[..., 1:2], axis=-1)[..., 0]
    pens = np.stack([np.zeros_like(m1), m1, m2, m1 + m2], axis=-1)
    w = 1 << np.arange(M - 1, -1, -1)
    packed = (h.astype(np.int64) * w).sum(axis=-1)
    b1 = np.take_along_axis(np.broadcast_to(w, h.shape), o[..., 0:1], axis=-1)[..., 0]
    b2 = np.take_along_axis(np.broadcast_to(w, h.shape), o[..., 1:2], axis=-1)[..., 0]
    cw_vals = np.stack([packed, packed ^ b1, packed ^ b2, packed ^ b1 ^ b2], axis=-1)
    return pens, cw_vals


def oracle_f_llr(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def draw_llrs(kind, shape, rng):
    if kind == "gaussian":
        return rng.normal(0.0, 3.0, shape)
    if kind == "integer":  # few distinct magnitudes: many exact ties
        return rng.integers(-3, 4, shape).astype(np.float64)
    if kind == "zero":
        return rng.choice([0.0, -0.0], shape)
    if kind == "huge":
        return rng.choice([1e30, -1e30, 1.0, -2.0, 0.0], shape)
    return rng.choice([np.inf, -np.inf, 1.5, -2.0, 0.0], shape)


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RATE_R2_PATTERNS), st.sampled_from(Q_VALUES),
       st.sampled_from(LLR_KINDS), st.integers(1, 6), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_aml_candidates_match_sort_oracle(pattern, q, kind, B, A, seed):
    rng = np.random.default_rng(seed)
    plan = _expand_plan(FrozenPattern.from_string(pattern).mask)
    # clamped as the decoder clamps: ±inf would give inf - inf = NaN table entries
    llr = np.clip(draw_llrs(kind, (B, A, 8), rng), -BEC_LLR_CLAMP, BEC_LLR_CLAMP)
    t1, t2 = leaf_metrics_rcc(llr)
    assert_same(_aml_candidates(t1, t2, plan, q), oracle_aml_candidates(t1, t2, plan, q))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RATE_R2_PATTERNS), st.sampled_from(Q_VALUES),
       st.sampled_from(LLR_KINDS), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_aml_expand_prune_matches_sort_oracle(pattern, q, kind, L, seed):
    rng = np.random.default_rng(seed)
    fp = FrozenPattern.from_string(pattern)
    B, A = 3, 4
    pm = rng.integers(0, 4, (B, A)).astype(np.float64)
    llr = draw_llrs(kind, (B, A, 8), rng)
    # aml_expand_prune clamps leaf LLRs as decode_frames clamps channel LLRs
    t1, t2 = leaf_metrics_rcc(np.clip(llr, -BEC_LLR_CLAMP, BEC_LLR_CLAMP))
    pen, sym = oracle_aml_candidates(t1, t2, _expand_plan(fp.mask), q)
    flat = (pm[:, :, None] + pen).reshape(B, -1)
    order = np.argsort(flat, axis=1, kind="stable")[:, :L]
    rows = np.arange(B)[:, None]
    want = (order // pen.shape[-1], sym.reshape(B, -1)[rows, order], flat[rows, order])
    assert_same(aml_expand_prune(pm, llr, fp, q, L), want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LLR_KINDS), st.sampled_from((2, 4, 8, 16)), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
def test_rate1_candidates_match_sort_oracle(kind, M, rows, seed):
    alpha = draw_llrs(kind, (rows, M), np.random.default_rng(seed))
    assert_same(rate1_candidates(alpha), oracle_rate1_candidates(alpha))


def test_rate1_all_equal_and_infinite_rows():
    # every magnitude tied: the first two positions flip, as a stable sort gives
    for value in (0.0, 2.5, np.inf, -np.inf):
        alpha = np.full((3, 2, 8), value)
        got = rate1_candidates(alpha)
        assert_same(got, oracle_rate1_candidates(alpha))
        assert got[1][0, 0, 1] != got[1][0, 0, 2]  # two distinct flips
    alpha = np.array([[np.inf, 1.0, np.inf, np.inf, -np.inf, np.inf, np.inf, np.inf]])
    assert_same(rate1_candidates(alpha), oracle_rate1_candidates(alpha))


def test_leaf_kernels_refuse_nan():
    llr = np.arange(8.0)
    llr[0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        rate1_candidates(llr)
    with pytest.raises(ValueError, match="NaN"):
        aml_expand_prune(np.zeros(1), llr[None], FrozenPattern.from_string("FDDDDDDD"), 4, 4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LLR_KINDS), st.integers(0, 2**32 - 1))
def test_f_llr_matches_sign_form(kind, seed):
    rng = np.random.default_rng(seed)
    a, b = draw_llrs(kind, (2, 3, 16), rng), draw_llrs(kind, (2, 3, 16), rng)
    got, want = f_llr(a, b), oracle_f_llr(a, b)
    # equal as numbers (a zero may differ in sign) and in hard decision
    assert np.array_equal(got, want)
    assert np.array_equal(hard_decision(got), hard_decision(want))
    assert f_llr(a[0, 0, 0], b).shape == b.shape  # broadcasting still works


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("gaussian", "integer", "zero", "huge")),
       st.sampled_from([(1, 1), (1, 4), (4, 1), (4, 4)]), st.integers(0, 2**32 - 1))
def test_g_llr_matches_formula_bytes(kind, paths, seed):
    # walk LLRs are clamped to +-1e30, so no inf; path axes of one and of A
    # broadcast either way, as in the tree walk
    rng = np.random.default_rng(seed)
    a_paths, c_paths = paths
    a, b = draw_llrs(kind, (2, a_paths, 16), rng), draw_llrs(kind, (2, a_paths, 16), rng)
    c = rng.integers(0, 2, (2, c_paths, 16), dtype=np.uint8)
    got = _g(a, b, c)
    want = b + (1 - 2 * c.astype(np.int64)) * a
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("llr_kind", ["awgn", "bec", "quantized"])
def test_decode_identical_with_oracle_kernels(llr_kind, rng, monkeypatch):
    """Whole decodes are byte-identical with the sort-based kernels."""
    code = pk.select_frozen(pk.bec_reliability(7, 0.4), 70, crc_width=8)
    spec = pk.CrcSpec(width=8, polynomial=0x07, init=0, xor_out=0, reflect=False)
    _, llrs = make_noisy_frames(code, 12, 2.0, rng, crc=spec)
    if llr_kind == "bec":
        llrs = np.where(rng.random(llrs.shape) < 0.3, 0.0, np.sign(llrs) * np.inf)
    elif llr_kind == "quantized":
        llrs = pk.quantize_llr(llrs, 4, 1.0)
    configs = [dict(L=1), dict(L=4, q=2), dict(L=8, q=4), dict(L=4, theta=64),
               dict(L=8, q=8, schedule="dnc"), dict(L=4, schedule="bitwise")]
    got = [decoder.decode_frames(code, llrs, crc=spec, **cfg) for cfg in configs]
    monkeypatch.setattr(decoder, "_aml_candidates", oracle_aml_candidates)
    monkeypatch.setattr(decoder, "rate1_candidates", oracle_rate1_candidates)
    monkeypatch.setattr(decoder, "_f", oracle_f_llr)  # the tree walk's f
    want = [decoder.decode_frames(code, llrs, crc=spec, **cfg) for cfg in configs]
    for (u1, pm1, ok1), (u2, pm2, ok2) in zip(got, want):
        assert u1.tobytes() == u2.tobytes()
        assert pm1.tobytes() == pm2.tobytes()
        assert ok1.tobytes() == ok2.tobytes()
