import dataclasses
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.channel import BEC_LLR_CLAMP, default_quantize_step, quantize_llr
from polarkit.core import CRC32, CrcSpec, crc_check_rows
from polarkit.decoder import (
    ModeConfig,
    _BLOCK_LLRS,
    _Branch,
    _ListDecoder,
    _build_tree,
    _g,
    aml_expand_prune,
    decode_frames,
    f_llr,
    leaf_metrics_rcc,
    rate0_penalty,
    rate1_candidates,
    repetition_candidates,
)
from polarkit.patterns import RATE_R2_PATTERNS, FrozenPattern, NodeKind

from conftest import make_noisy_frames
from oracle import bruteforce_symbol_topL, exhaustive_ml, matrix_encode, plain_sc, valid_symbols


def test_f_g_hand_values():
    assert f_llr(2.0, -3.0) == -2.0
    assert f_llr(0.0, 5.0) == 0.0
    # the walk's g on one frame, one path: partial sums 0 and 1
    g = _g(np.full((1, 1, 2), 2.0), np.full((1, 1, 2), -3.0), np.array([[[0, 1]]], np.uint8))
    assert np.array_equal(g, [[[-1.0, -5.0]]])
    assert rate1_candidates(np.zeros((1, 8)))[1][0, 0] == 0  # hard(0) = 0


def test_rcc_metrics_all_positive_llrs():
    t1, t2 = leaf_metrics_rcc(np.full(8, 10.0))
    assert t1[0] == 0 and t2[0] == 0
    assert np.all(t1[1:] > 0) and np.all(t2[1:] > 0)


def test_rcc_metrics_match_bruteforce(rng):
    # each table entry equals the mismatch sum of the sub-symbol's codeword
    nib_bits = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    cw4 = matrix_encode(nib_bits)
    for _ in range(200):
        llr = rng.standard_normal(8) * 3
        t1, t2 = leaf_metrics_rcc(llr)
        for half, table in ((llr[:4], t1), (llr[4:], t2)):
            hard = (half < 0)
            want = (np.abs(half) * (cw4 != hard)).sum(axis=1)
            assert np.allclose(table, want, atol=1e-12)


def test_rcc_zero_llr_creates_ties():
    llr = np.array([0.0, 1, 1, 1, 1, 1, 1, 1])
    t1, _ = leaf_metrics_rcc(llr)
    # hypotheses differing only in the bit measured by the zeroed position tie
    assert len(np.unique(t1)) < 16


def test_rcc_arity_check():
    with pytest.raises(ValueError):
        leaf_metrics_rcc(np.zeros(7))


@pytest.mark.parametrize("pattern", RATE_R2_PATTERNS)
@pytest.mark.parametrize("L,q", [(1, 1), (2, 2), (4, 4)])
def test_aml_matches_bruteforce_quick(pattern, L, q, rng):
    fp = FrozenPattern.from_string(pattern)
    B = 300
    pms = rng.random((B, L)) * 4
    llr = rng.standard_normal((B, L, 8)) * 2
    p1, s1, m1 = aml_expand_prune(pms, llr, fp, q, L)
    p2, s2, m2 = bruteforce_symbol_topL(pms, llr, fp, L)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1, s2)
    assert np.allclose(m1, m2, rtol=1e-12, atol=1e-12)


def test_aml_exceeding_q_covers_all_candidates(rng):
    # q >= number of valid symbols makes the expansion exhaustive
    fp = FrozenPattern.from_string("FFDDDDDD")
    pms = np.zeros((1, 1))
    llr = rng.standard_normal((1, 1, 8))
    _, s, _ = aml_expand_prune(pms, llr, fp, q=64, L=64)
    assert sorted(s[0].tolist()) == valid_symbols(fp).tolist()


def test_aml_all_zero_llrs_tie_rule():
    fp = FrozenPattern.from_string("FFFDFDDD")
    pms = np.zeros((1, 1))
    llr = np.zeros((1, 1, 8))
    _, s, m = aml_expand_prune(pms, llr, fp, q=4, L=4)
    assert np.all(m == 0)
    assert s[0].tolist() == valid_symbols(fp)[:4].tolist()  # smallest symbols win


def test_aml_validation(rng):
    good = FrozenPattern.from_string("FFFDFDDD")
    with pytest.raises(ValueError):
        aml_expand_prune(np.zeros(2), rng.standard_normal((2, 8)), good, 0, 2)
    with pytest.raises(ValueError):
        bad = FrozenPattern.from_string("DDDDDDDD")
        aml_expand_prune(np.zeros(2), rng.standard_normal((2, 8)), bad, 2, 2)


def test_aml_expand_prune_clamps_infinite_llrs():
    # clamped as decode_frames clamps them: finite metrics, not NaN
    fp = FrozenPattern.from_string("FDDDDDDD")
    got = aml_expand_prune(np.zeros(1), [[-np.inf, 1, 1, 1, 1, 1, 1, 1]], fp, 4, 4)
    want = aml_expand_prune(np.zeros(1), [[-BEC_LLR_CLAMP, 1, 1, 1, 1, 1, 1, 1]], fp, 4, 4)
    assert np.isfinite(got[2]).all()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_rate0_penalty_example():
    alpha = np.array([1.0, -2, 3, -4, 1, 1, 1, 1])
    assert rate0_penalty(alpha) == 6.0


def test_repetition_candidates_example():
    pens, syms = repetition_candidates(np.ones((1, 8)))
    assert pens[0].tolist() == [0.0, 8.0]
    assert syms.tolist() == [0, 1]
    pens, _ = repetition_candidates(np.array([[-2.0], [3.0], [0.0]]))  # single bits
    assert pens.tolist() == [[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]


def test_rate1_hard_decision_survivor(rng):
    alpha = np.array([[3.0, -1.5, 2.5, -4.0, 0.5, 6.0, -2.0, 1.0]])
    pens, cws = rate1_candidates(alpha)
    assert pens[0, 0] == 0.0  # pure hard decision first
    # its packed codeword unpacks to the hard decision word
    from polarkit.decoder import _leaf_tables
    cw = _leaf_tables(8)[0][cws[0, 0]]
    assert np.array_equal(cw, (alpha[0] < 0).astype(np.uint8))
    assert pens[0, 1] == 0.5 and pens[0, 2] == 1.0 and pens[0, 3] == 1.5


# -- full decode --------------------------------------------------------------


def _random_code(rng, n=6, K=32):
    return pk.select_frozen(pk.bec_reliability(n, 0.5), K)


def _decode(code, llrs, cfg, crc=None):
    return decode_frames(code, llrs, L=cfg.L, q=cfg.q, theta=cfg.effective_theta,
                         schedule=cfg.schedule, crc=crc)


def _hypothesis_code(seed, n, max_K, designed):
    """A code with 0 < K <= max_K: BEC-designed at a random erasure
    probability, or a uniformly random frozen set."""
    rng = np.random.default_rng(seed)
    N = 1 << n
    K = int(rng.integers(1, min(max_K, N - 1) + 1))
    if designed:
        return pk.select_frozen(pk.bec_reliability(n, float(rng.uniform(0.05, 0.95))), K), rng
    mask = np.ones(N, dtype=np.uint8)
    mask[rng.choice(N, K, replace=False)] = 0
    return pk.PolarCode(n, K, mask), rng


# (schedule, L, theta as a fraction of N); the last entry is mode4_1 at N/2
_DECODE_CONFIGS = [(s, L, None) for s in ("fast", "dnc", "bitwise") for L in (1, 4, 8)]
_DECODE_CONFIGS.append(("fast", 4, 0.5))
_code_args = (st.integers(0, 2**32 - 1), st.integers(3, 7), st.booleans(),
              st.sampled_from(_DECODE_CONFIGS))


def _decode_kw(config, N):
    schedule, L, theta = config
    return dict(L=L, schedule=schedule, theta=None if theta is None else int(theta * N))


def test_noiseless_decode_every_mode(rng):
    code = _random_code(rng)
    u = np.zeros(code.N, dtype=np.uint8)
    u[code.info_positions] = rng.integers(0, 2, code.K)
    llr = (1.0 - 2.0 * pk.encode(code, u[code.info_positions]).astype(float)) * 25
    for cfg in (ModeConfig("mode4"), ModeConfig("mode2"), ModeConfig.mode1(),
                ModeConfig.mode4_1(theta=32), ModeConfig.custom(L=8)):
        u_hat, _, _ = _decode(code, llr[None, :], cfg)
        assert np.array_equal(u_hat[0], u), cfg.mode


def test_noiseless_decode_bec_llrs(rng):
    code = _random_code(rng)
    u = np.zeros(code.N, dtype=np.uint8)
    u[code.info_positions] = rng.integers(0, 2, code.K)
    x = pk.encode(code, u[code.info_positions])
    llr = np.where(x == 0, np.inf, -np.inf)  # erasure-free channel word
    u_hat, _, _ = _decode(code, llr[None, :], ModeConfig("mode4"))
    assert np.array_equal(u_hat[0], u)


@settings(max_examples=25, deadline=None)
@given(*_code_args)
def test_decoded_frozen_positions_are_zero(seed, n, designed, config):
    code, rng = _hypothesis_code(seed, n, 1 << n, designed)
    u, _, _ = decode_frames(code, rng.standard_normal((16, code.N)) * 3,
                            **_decode_kw(config, code.N))
    assert not u[:, code.frozen_mask.astype(bool)].any()


@settings(max_examples=25, deadline=None)
@given(*_code_args)
def test_channel_symmetry(seed, n, designed, config):
    # flipping the LLR signs along a codeword x = uG flips the decision by u
    code, rng = _hypothesis_code(seed, n, 1 << n, designed)
    kw = _decode_kw(config, code.N)
    llrs = rng.normal(0.5, 2.0, size=(16, code.N))
    ux = np.zeros((16, code.N), dtype=np.uint8)
    ux[:, code.info_positions] = rng.integers(0, 2, size=(16, code.K))
    x = pk.polar_transform(ux)
    u, pm, _ = decode_frames(code, llrs, **kw)
    u_flip, pm_flip, _ = decode_frames(code, llrs * (1.0 - 2.0 * x), **kw)
    assert np.array_equal(u_flip, u ^ ux)
    # penalties are summed in another order on the flipped word
    assert np.allclose(pm_flip, pm, rtol=1e-9, atol=1e-12)


def test_decode_L1_equals_plain_sc_quick(rng):
    for n, K in ((6, 32), (8, 128)):
        code = pk.select_frozen(pk.bec_reliability(n, 0.5), K)
        _, llrs = make_noisy_frames(code, 500, 1.5, rng)
        u, _, _ = decode_frames(code, llrs, L=1)
        assert np.array_equal(u, plain_sc(code, llrs))


def _zero_heavy_llrs(kind, rng, count, N):
    """LLRs of random words where rounding residues of g meet huge path
    metrics: clamped BEC (+-BEC_LLR_CLAMP, a fifth erased to -0.0) or 4-bit
    quantized Gaussian."""
    if kind == "bec":
        llrs = rng.choice([-BEC_LLR_CLAMP, BEC_LLR_CLAMP], size=(count, N))
        llrs[rng.random(llrs.shape) < 0.2] = -0.0
        return llrs
    return quantize_llr(rng.normal(0.5, 2.0, size=(count, N)), 4, default_quantize_step(4, 0.5))


@pytest.mark.parametrize("kind", ["bec", "quantized"])
def test_bitwise_L1_is_plain_sc_for_every_theta(kind, rng):
    # a lone path picks by its penalty alone, so where pm + penalty would
    # lose a residue the pick still follows the LLR's sign, as SC does
    for n in (5, 9, 10):
        code = pk.select_frozen(pk.bec_reliability(n, 0.4), 1 << (n - 1))
        llrs = _zero_heavy_llrs(kind, rng, 64, code.N)
        want = plain_sc(code, llrs)
        for theta in (None, 0, code.N // 2):
            u, _, _ = decode_frames(code, llrs, L=1, theta=theta, schedule="bitwise")
            assert np.array_equal(u, want), (code.N, theta)


@pytest.mark.parametrize("schedule", ["fast", "dnc", "bitwise"])
def test_L1_words_do_not_depend_on_theta(schedule, rng):
    for n in (9, 10):
        code = pk.select_frozen(pk.bec_reliability(n, 0.4), 1 << (n - 1))
        for kind in ("bec", "quantized"):
            llrs = _zero_heavy_llrs(kind, rng, 64, code.N)
            want, _, _ = decode_frames(code, llrs, L=1, schedule=schedule)
            for theta in range(0, code.N + 1, code.N // 4):
                u, _, _ = decode_frames(code, llrs, L=1, theta=theta, schedule=schedule)
                assert np.array_equal(u, want), (code.N, kind, theta)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.booleans())
def test_decode_as_ml_with_huge_list_quick(seed, n, designed):
    # a list of 2^K paths never prunes, so it decodes as exhaustive ML
    code, rng = _hypothesis_code(seed, n, 8, designed)
    llrs = rng.normal(1.0, 1.5, size=(24, code.N))
    u, _, _ = decode_frames(code, llrs, L=1 << code.K, q=256, schedule="dnc")
    assert np.array_equal(u, exhaustive_ml(code, llrs))


def test_schedules_agree_with_bitwise_at_q_ge_L(rng):
    code = _random_code(rng)
    _, llrs = make_noisy_frames(code, 200, 1.0, rng)
    for L in (2, 4):
        a, pa, _ = decode_frames(code, llrs, L=L, q=L, schedule="fast")
        b, pb, _ = decode_frames(code, llrs, L=L, q=L, schedule="dnc")
        c, pc, _ = decode_frames(code, llrs, L=L, q=L, schedule="bitwise")
        # rate-1 leaves cap candidates under 'fast'; this code has none
        _, census = pk.extract_patterns(code, 8)
        if "DDDDDDDD" not in census:
            assert np.array_equal(a, b) and np.array_equal(a, c)
        else:
            assert np.array_equal(b, c)


@contextmanager
def _select_log():
    """Log (old pm, kept parents, new pm) of every list prune (`_select`)
    and every pick of a path that decodes alone (`_pick`) while the context
    is open, in decode order; a pick keeps every path in its place, so its
    kept parents are arange(A)."""
    log = []
    select, pick = _ListDecoder._select, _ListDecoder._pick

    def select_spy(self, pens, syms):
        old = self._pm.copy()
        sym, parent = select(self, pens, syms)
        log.append((old, parent, self._pm.copy()))
        return sym, parent

    def pick_spy(self, node, alpha):
        old = self._pm.copy()
        c = pick(self, node, alpha)
        log.append((old, np.broadcast_to(np.arange(old.shape[1]), old.shape), self._pm.copy()))
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ListDecoder, "_select", select_spy)
        mp.setattr(_ListDecoder, "_pick", pick_spy)
        yield log


_CRC4 = CrcSpec(width=4, polynomial=0x3, init=0, xor_out=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.booleans(),
       st.sampled_from([(L, q) for L in (1, 2, 4, 8) for q in range(1, L + 1)]),
       st.sampled_from(("fast", "dnc", "bitwise")), st.integers(0, 4), st.booleans())
def test_pm_monotone_and_nonnegative(seed, n, designed, list_q, schedule, quarters, with_crc):
    # a select never lowers the metric of the path a survivor descends from:
    # every penalty is >= 0, so pm + penalty >= pm holds exactly
    code, rng = _hypothesis_code(seed, n, (1 << n) - 1, designed)
    crc = _CRC4 if with_crc and code.K > _CRC4.width else None
    L, q = list_q
    _, llrs = make_noisy_frames(code, 8, 1.0, rng, crc=crc)
    with _select_log() as log:
        decode_frames(code, llrs, L=L, q=q, theta=quarters * code.N // 4,
                      schedule=schedule, crc=crc)
    assert log, "every code with K > 0 makes a select"
    for old, parent, new in log:
        rows = np.arange(old.shape[0])[:, None]
        assert np.all(new >= old[rows, parent])
        assert np.all(new >= 0)


def test_mode4_1_theta_full_equals_mode4(rng):
    code = _random_code(rng)
    _, llrs = make_noisy_frames(code, 300, 1.0, rng)
    a, pa, _ = decode_frames(code, llrs, L=4, theta=code.N)
    b, pb, _ = decode_frames(code, llrs, L=4, theta=None)
    assert np.array_equal(a, b) and np.array_equal(pa, pb)


def test_mode4_1_theta_zero_is_single_path_sc(rng):
    code = _random_code(rng)
    _, llrs = make_noisy_frames(code, 200, 1.0, rng)
    a, _, _ = decode_frames(code, llrs, L=4, theta=0)
    assert np.array_equal(a, plain_sc(code, llrs))


def _picks_from(node, theta):
    """Picks a decode makes at schedule leaves starting at or after theta
    (there every path continues alone: one pick per leaf not all frozen)."""
    if isinstance(node, _Branch):
        return _picks_from(node.left, theta) + _picks_from(node.right, theta)
    if node.start < theta:
        return 0
    return int(node.kind is not NodeKind.RATE0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.booleans(), st.integers(0, 4),
       st.sampled_from((2, 4)), st.sampled_from(("fast", "dnc")))
def test_decode_batch_independence(seed, n, with_crc, quarters, L, schedule):
    # each row of a batch decodes as if it were alone, for mode4_1 at any theta;
    # past theta every pick keeps each path in its place
    code, rng = _hypothesis_code(seed, n, (1 << n) - 1, True)
    crc = _CRC4 if with_crc and code.K > _CRC4.width else None
    theta = quarters * code.N // 4
    kw = dict(L=L, theta=theta, schedule=schedule, crc=crc)
    _, llrs = make_noisy_frames(code, 4, 1.0, rng, crc=crc)
    with _select_log() as log:
        u, pm, ok = decode_frames(code, llrs, **kw)
    for i in range(len(llrs)):
        ui, pmi, oki = decode_frames(code, llrs[i : i + 1], **kw)
        assert np.array_equal(u[i], ui[0]) and pm[i] == pmi[0]
        assert (ok is None and oki is None) or ok[i] == oki[0]
    after = _picks_from(_build_tree(code.frozen_mask.tobytes(), schedule), theta)
    assert after <= len(log)
    for old, parent, new in log[len(log) - after :]:
        assert np.array_equal(parent, np.broadcast_to(np.arange(old.shape[1]), old.shape))
        assert np.all(new >= old)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from((1, 2, 4)).flatmap(
           lambda b: st.lists(st.sampled_from(RATE_R2_PATTERNS), min_size=b, max_size=b)),
       st.sampled_from(("awgn", "bec", "quantized")), st.sampled_from((1, 2, 4)))
def test_mixed_leaves_decoded_alone_are_bitwise_sc(seed, blocks, kind, L):
    # where paths decode alone a mixed leaf under 'fast' is classic SC to the
    # byte: the same words and path metrics as the bit-serial schedule
    mask = np.array([c == "F" for c in "".join(blocks)], dtype=np.uint8)
    code = pk.PolarCode(len(blocks).bit_length() + 2, int((mask == 0).sum()), mask)
    rng = np.random.default_rng(seed)
    if kind == "awgn":
        llrs = rng.normal(0.5, 2.0, size=(16, code.N))
    elif kind == "bec":
        llrs = rng.choice([-BEC_LLR_CLAMP, BEC_LLR_CLAMP, 0.0, -0.0], size=(16, code.N),
                          p=[0.4, 0.4, 0.1, 0.1])
    else:
        llrs = _zero_heavy_llrs("quantized", rng, 16, code.N)
    theta = None if L == 1 else 0
    u, pm, _ = decode_frames(code, llrs, L=L, theta=theta, schedule="fast")
    u_ref, pm_ref, _ = decode_frames(code, llrs, L=L, theta=theta, schedule="bitwise")
    assert np.array_equal(u, u_ref)
    assert pm.tobytes() == pm_ref.tobytes()


@pytest.mark.parametrize("kw", [dict(L=1), dict(L=4, theta=0), dict(L=4, theta=64),
                                dict(L=2, theta=96)])
def test_alone_rate1_leaf_is_the_hard_decision(kw, rng):
    # where paths decode alone a rate-1 leaf is the hard decision alpha < 0
    # (candidate 0, penalty +0.0), and the path metrics stay as they are
    code = pk.select_frozen(pk.bec_reliability(7, 0.4), 100)
    _, llrs = make_noisy_frames(code, 16, 1.0, rng)
    llrs[rng.random(llrs.shape) < 0.2] = 0.0  # zero LLRs decide 0
    log, pick = [], _ListDecoder._pick

    def spy(self, node, alpha):
        old = self._pm.copy()
        c = pick(self, node, alpha)
        if node.kind is NodeKind.RATE1:
            log.append((alpha.copy(), c, old, self._pm))
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ListDecoder, "_pick", spy)
        decode_frames(code, llrs, **kw)
    assert log, "the code has rate-1 leaves past theta"
    for alpha, c, old, new in log:
        assert c.dtype == np.uint8 and np.array_equal(c, alpha < 0)
        assert new.tobytes() == old.tobytes()


def _sign_f(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _bit_llr(alpha, u, i):
    """LLR of bit i of a subtree, per path, from the subtree's channel LLRs
    alpha (paths, span) and each path's own earlier bits u (paths, >= i)."""
    if alpha.shape[1] == 1:
        return alpha[:, 0]
    h = alpha.shape[1] // 2
    a0, a1 = alpha[:, 0::2], alpha[:, 1::2]
    if i < h:
        return _bit_llr(_sign_f(a0, a1), u, i)
    c = pk.polar_transform(u[:, :h])
    return _bit_llr(a1 + (1.0 - 2.0 * c) * a0, u[:, h:], i - h)


def _reference_scl(code, llrs, L, theta, crc):
    """Bit-serial SCL that copies each survivor's bits and recomputes every
    LLR from the channel: no shared state between paths, no permutations.

    The list prune keeps the L first candidates in (metric, path, bit)
    order; at list size one, and from bit theta on, every path takes its own
    better bit (0 on a tie) by its penalty alone, as SC does; the best
    metric wins, among CRC-passing paths when there are any.
    """
    theta = code.N if theta is None else theta
    out_u, out_pm, out_ok = [], [], []
    for row in np.clip(llrs, -BEC_LLR_CLAMP, BEC_LLR_CLAMP):
        us, pms = [np.zeros(code.N, dtype=np.uint8)], [0.0]
        for i in range(code.N):
            llr = _bit_llr(np.tile(row, (len(us), 1)), np.array(us), i)
            # penalty of each bit value: |llr| where it disagrees with hard(llr)
            pens = [[abs(x) if bit != (x < 0) else 0.0 for bit in (0, 1)] for x in llr]
            if code.frozen_mask[i]:
                pms = [pm + pen[0] for pm, pen in zip(pms, pens)]
                continue
            if i >= theta or L == 1:
                cands = [(pm + min(pen), p, int(pen[1] < pen[0]))
                         for p, (pm, pen) in enumerate(zip(pms, pens))]
            else:
                cands = sorted((pm + pen[b], p, b) for p, (pm, pen) in enumerate(zip(pms, pens))
                               for b in (0, 1))[:L]
            us = [us[p].copy() for _, p, _ in cands]
            for u, (_, _, b) in zip(us, cands):
                u[i] = b
            pms = [metric for metric, _, _ in cands]
        pms = np.array(pms)
        passing = (np.zeros(len(us), dtype=bool) if crc is None
                   else crc_check_rows(np.array(us)[:, code.info_positions], crc))
        win = np.flatnonzero(passing)[pms[passing].argmin()] if passing.any() else pms.argmin()
        out_u.append(us[win])
        out_pm.append(pms[win])
        out_ok.append(passing.any())
    return np.array(out_u), np.array(out_pm), None if crc is None else np.array(out_ok)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.sampled_from((1, 2, 4, 8)),
       st.sampled_from((None, 0, 0.5)), st.sampled_from(("gaussian", "bec", "integer")),
       st.booleans())
# a rounding residue of g (-2.8e14 at bit 30) that vanishes in pm + penalty:
# SC, and the decoder at L=1, follow its sign
@example(seed=9511, n=6, L=1, theta=None, kind="bec", with_crc=False)
def test_bitwise_decode_matches_copy_based_reference(seed, n, L, theta, kind, with_crc):
    code, rng = _hypothesis_code(seed, n, (1 << n) - 1, True)
    crc = _CRC4 if with_crc and code.K > _CRC4.width else None
    _, llrs = make_noisy_frames(code, 3, 1.0, rng, crc=crc)
    if kind == "bec":
        llrs = np.where(rng.random(llrs.shape) < 0.3, 0.0, np.sign(llrs) * np.inf)
    elif kind == "integer":
        llrs = np.round(llrs).clip(-3, 3)
    theta = None if theta is None else int(theta * code.N)
    u, pm, ok = decode_frames(code, llrs, L=L, theta=theta, schedule="bitwise", crc=crc)
    ru, rpm, rok = _reference_scl(code, llrs, L, theta, crc)
    assert u.tobytes() == ru.tobytes()
    assert pm.tobytes() == rpm.tobytes()
    assert (ok is None and rok is None) or np.array_equal(ok, rok)


def test_crc_aided_selection(rng):
    code = pk.select_frozen(pk.bec_reliability(8, 0.5), 140, crc_width=32)
    info, llrs = make_noisy_frames(code, 400, 2.0, rng, crc=CRC32)
    u, pm, ok = decode_frames(code, llrs, L=4, crc=CRC32)
    got = u[:, code.info_positions]
    # every reported pass must carry a CRC-consistent word
    assert crc_check_rows(got[ok]).all()
    # CRC selection should not do worse than plain best-metric selection
    u2, _, _ = decode_frames(code, llrs, L=4)
    fe_crc = (got != info).any(1).mean()
    fe_pm = (u2[:, code.info_positions] != info).any(1).mean()
    assert fe_crc <= fe_pm + 1e-9


def test_crc_failure_still_returns_word(rng):
    code = pk.select_frozen(pk.bec_reliability(6, 0.5), 40, crc_width=32)
    llrs = rng.standard_normal((20, 64)) * 0.1  # hopeless channel
    u, pm, ok = decode_frames(code, llrs, L=2, crc=CRC32)
    assert u.shape == (20, 64)
    assert ok.dtype == bool


@pytest.mark.parametrize("L", [1, 2, 4, 8])
@pytest.mark.parametrize("crc", [None, CRC32])
def test_zero_frame_batch_decodes_to_empty_results(L, crc):
    # on the longer codes a g whose partial sums hold more paths than its
    # LLRs meets an empty batch
    for n, K in ((6, 40), (7, 64), (8, 128)):
        code = pk.select_frozen(pk.bec_reliability(n, 0.5), K,
                                crc_width=0 if crc is None else 32)
        u, pm, ok = decode_frames(code, np.zeros((0, code.N)), L=L, crc=crc)
        assert u.shape == (0, code.N) and u.dtype == np.uint8
        assert pm.shape == (0,)
        assert ok is None if crc is None else (ok.shape == (0,) and ok.dtype == bool)


def test_mode_config_validation():
    # a named mode presets L, and an explicit L overrides the preset
    assert ModeConfig(mode="mode4", L=2).L == 2 and ModeConfig(mode="mode4").L == 4
    with pytest.raises(ValueError, match="custom requires a list size L"):
        ModeConfig("custom")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ModeConfig.mode1().L = 4
    with pytest.raises(ValueError):
        ModeConfig(mode="mode4_1", L=4)  # theta missing
    with pytest.raises(ValueError):
        ModeConfig(mode="warp", L=1)
    for L in (0, -1):
        with pytest.raises(ValueError):
            ModeConfig.custom(L=L)
    for q in (0, 300):
        with pytest.raises(ValueError, match="q must"):
            ModeConfig.custom(L=4, q=q)
    assert ModeConfig.custom(L=8, q=4).q == 4
    assert ModeConfig.custom(L=8).q == 8 and ModeConfig.custom(L=512).q == 256
    assert ModeConfig.mode1().q == 1
    for theta in (-1, -5):
        with pytest.raises(ValueError, match="theta"):
            ModeConfig.mode4_1(theta)
        with pytest.raises(ValueError, match="theta"):
            ModeConfig.custom(L=4, theta=theta)
    for mode in ("mode4", "mode2", "mode1"):
        with pytest.raises(ValueError, match="theta"):
            ModeConfig(mode, theta=100)
        assert ModeConfig(mode).effective_theta is None
    assert ModeConfig.mode4_1(0).effective_theta == 0
    assert ModeConfig.custom(L=8, theta=64).effective_theta == 64


def test_decode_validates_inputs(rng):
    code = _random_code(rng)
    with pytest.raises(ValueError):
        decode_frames(code, np.zeros((1, 32)), L=4)
    with pytest.raises(ValueError):
        decode_frames(code, np.zeros(64), L=4)  # one frame is a (1, N) batch
    with pytest.raises(ValueError):
        decode_frames(code, np.zeros((1, 64)), L=4, theta=100)


def test_decode_rejects_nan_llrs(rng):
    code = _random_code(rng)
    llrs = rng.standard_normal((3, 64))
    llrs[1, 17] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        decode_frames(code, llrs, L=4)
    llrs[0, 3], llrs[2, 60] = np.inf, -np.inf  # NaN among out-of-range LLRs
    with pytest.raises(ValueError, match="NaN"):
        decode_frames(code, llrs, L=4)


@pytest.mark.parametrize("kind, n, K, frames", [("in_range", 7, 72, 24), ("infinite", 7, 72, 24),
                                                 ("above_block", 9, 256, 300)],
                         ids=["in_range", "infinite", "above_block"])
def test_decode_never_writes_its_input(kind, n, K, frames, rng):
    code = pk.select_frozen(pk.bec_reliability(n, 0.5), K, crc_width=32)
    _, llrs = make_noisy_frames(code, frames, 2.0, rng, crc=CRC32)
    if kind == "infinite":
        llrs[rng.random(llrs.shape) < 0.2] = np.inf
        llrs[rng.random(llrs.shape) < 0.2] = -np.inf
    elif kind == "above_block":
        # f and g both read the LLRs in several blocks
        assert llrs.size // 2 > _BLOCK_LLRS
    frozen = llrs.copy()
    frozen.setflags(write=False)
    for kw in [_decode_kw(config, code.N) for config in _DECODE_CONFIGS] + [
            dict(L=4, crc=CRC32), dict(L=4, theta=code.N // 2, crc=CRC32),
            dict(L=8, crc=CRC32), dict(L=8, q=4, crc=CRC32)]:
        got = decode_frames(code, frozen, **kw)
        want = decode_frames(code, llrs.copy(), **kw)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), kw
    assert frozen.tobytes() == llrs.tobytes()


def _traced_bytes_per_llr(L, frames, rng):
    """Traced peak of one decode of the benchmark's list8 code at q = 4, per
    LLR of L*N*frames, after a one-frame decode has built the schedule."""
    code = pk.select_frozen(pk.bec_reliability(11, 0.32), 1433, crc_width=32)
    _, llrs = make_noisy_frames(code, frames, 3.2, rng, crc=CRC32)
    decode_frames(code, llrs[:1], L=L, q=4, crc=CRC32)
    tracemalloc.start()
    try:
        decode_frames(code, llrs, L=L, q=4, crc=CRC32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (L * code.N * frames)


def test_list_walk_peaks_under_nine_bytes_per_llr(rng):
    """One decode holds little more than one LLR array per depth of the
    current path, 8 bytes per LLR of L*N*frames in all."""
    assert _traced_bytes_per_llr(8, 16, rng) < 9.0


def test_fanned_out_list_peaks_under_six_and_a_half_bytes_per_llr(rng):
    """Where the list fans out, a node holds its one-path parent's LLRs and
    its sibling's partial sums instead of L copies of g of them."""
    assert _traced_bytes_per_llr(32, 8, rng) < 6.5


def test_tiny_codes_decode(rng):
    # N < 8 falls back to bitwise leaves automatically
    for n, K in ((1, 1), (2, 2)):
        code = pk.select_frozen(pk.bec_reliability(n, 0.5), K)
        u = np.zeros(code.N, dtype=np.uint8)
        u[code.info_positions] = rng.integers(0, 2, K)
        llr = (1.0 - 2.0 * pk.encode(code, u[code.info_positions]).astype(float)) * 9
        u_hat, _, _ = decode_frames(code, llr[None, :], L=2)
        assert np.array_equal(u_hat[0], u)
