"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its measured evidence (run with -s to watch).

Criterion 7 is the error-rate study (24 min 18 s on two workers, measured
once) and is marked 'heavy' (excluded by the default pytest options; run
`pytest -m heavy` for it).
Criteria 2 and 8 take a few minutes and are marked 'slow' but stay in the
default run.
"""

import os
from fractions import Fraction

import numpy as np
import pytest

import polarkit as pk
from polarkit.cli import main
from polarkit.construction import design_mean_llr, verify_reliability_ordering
from polarkit.core import CRC32
from polarkit.costs import count_ops
from polarkit.decoder import ModeConfig, aml_expand_prune, decode_frames
from polarkit.patterns import CATALOGS, RATE_R2_PATTERNS, FrozenPattern, census_over_all_k
from polarkit.sim import simulate_point

from conftest import make_noisy_frames
from oracle import bruteforce_symbol_topL, exhaustive_ml, plain_sc

WORKERS = min(4, os.cpu_count() or 1)


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


# -- 1. operation-count rows (exact) -------------------------------------------


def test_criterion_1_operation_counts():
    rows = {
        ("rcc", 8, 4): (304, ((256, 4, 1),)),
        ("dmm", 8, 4): (1792, ((256, 4, 1),)),
        ("drh", 8, 4): (784, ((256, 4, 1),)),
        ("dnc81", 8, 4): (112, ((64, 4, 1), (16, 4, 2))),
        ("dnc9", 8, 4): (80, ((32, 4, 1), (16, 4, 2))),
        ("lcaml", 8, 4): (80, ((32, 4, 1), (8, 4, 4))),
        ("dnc81", 16, 4): (1632, ((1024, 4, 1), (256, 4, 2))),
        ("dnc9", 16, 4): (736, ((128, 4, 1), (256, 4, 2))),
    }
    for (method, M, q), (mult, sorts) in rows.items():
        rep = count_ops(method, M, q)
        assert rep.multiplications == mult, (method, M, q, rep)
        assert rep.sorts == sorts, (method, M, q, rep)
    _report(1, f"all {len(rows)} operation-count rows reproduced exactly")


# -- 2. pattern census ----------------------------------------------------------


@pytest.mark.slow
def test_criterion_2_pattern_census():
    catalogs = {M: set(catalog) for M, catalog in CATALOGS.items()}
    seen = {M: set() for M in catalogs}
    codes = 0
    for n in range(6, 13):  # N = 64 .. 4096
        for eps10 in range(1, 10):
            order = pk.bec_reliability(n, eps10 / 10).frozen_order()
            census = census_over_all_k(order, (2, 4, 8, 16))
            for M in catalogs:
                seen[M] |= census[M]
            codes += (1 << n) - 1  # every K
    for M, cat in catalogs.items():
        extra = seen[M] - cat
        assert not extra, f"M={M}: non-catalog patterns {sorted(extra)}"
    assert len(seen[16]) <= 17
    ga_seen = set()
    ga_codes = 0
    for n in (10, 11, 12, 13):
        for rate in (0.5, 0.8):
            for snr10 in range(0, 41, 5):
                z0 = design_mean_llr(snr10 / 10)
                code = pk.select_frozen(pk.ga_reliability(n, z0), int((1 << n) * rate))
                _, census = pk.extract_patterns(code, 8)
                ga_seen |= census
                ga_codes += 1
    extra = ga_seen - catalogs[8]
    assert not extra, f"GA non-catalog patterns {sorted(extra)}"
    _report(2, f"BEC census over {codes} codes within the 3/5/9/17 catalogs "
               f"(16-bit distinct = {len(seen[16])}); GA census over {ga_codes} codes "
               f"within the nine")


# -- 3. reliability-ordering verification ---------------------------------------


def test_criterion_3_ordering_verification():
    grid = [Fraction(k, 1000) for k in range(1, 1000)]
    rep = verify_reliability_ordering(grid, depth=8)
    assert rep.ok, rep.violations[:10]
    _report(3, f"{rep.checks} exact inequalities hold over 999 grid points, depth 8 "
               f"(zero violations; exact rational arithmetic)")


# -- 4. expansion unit equals brute force ----------------------------------------


def test_criterion_4_expansion_equals_bruteforce():
    rng = np.random.default_rng(4242)
    trials = 10_000
    checked = 0
    for pattern in RATE_R2_PATTERNS:
        fp = FrozenPattern.from_string(pattern)
        for L, q in ((1, 1), (2, 2), (4, 4)):
            pms = rng.random((trials, L)) * 5
            llr = rng.standard_normal((trials, L, 8)) * 2
            p1, s1, m1 = aml_expand_prune(pms, llr, fp, q, L)
            p2, s2, m2 = bruteforce_symbol_topL(pms, llr, fp, L)
            assert np.array_equal(p1, p2), (pattern, L)
            assert np.array_equal(s1, s2), (pattern, L)
            assert np.allclose(m1, m2, rtol=1e-12, atol=1e-12)
            checked += trials
    _report(4, f"survivor sets equal brute-force top-L on {checked} random trials "
               f"(6 patterns x 3 configurations x 10^4)")


# -- 5. never-pruning list equals exhaustive ML ----------------------------------


def test_criterion_5_never_pruning_list_is_ml():
    rng = np.random.default_rng(55)
    code = pk.select_frozen(pk.bec_reliability(4, 0.5), 8)
    _, llrs = make_noisy_frames(code, 1000, 0.0, rng)
    u, _, _ = decode_frames(code, llrs, L=256, q=256, schedule="dnc")
    want = exhaustive_ml(code, llrs)
    assert np.array_equal(u, want)
    _report(5, "L=256 list decoding equals exhaustive ML on 1000 noisy (16,8) frames")


# -- 6. SC cross-check -----------------------------------------------------------


def test_criterion_6_sc_crosscheck():
    rng = np.random.default_rng(66)
    total = 0
    for n, K in ((6, 32), (8, 128)):
        code = pk.select_frozen(pk.bec_reliability(n, 0.5), K)
        for _ in range(10):
            _, llrs = make_noisy_frames(code, 1000, 1.5, rng)
            u, _, _ = decode_frames(code, llrs, L=1)
            assert np.array_equal(u, plain_sc(code, llrs))
            total += 1000
    _report(6, f"decode(L=1) bit-exact with the bit-serial SC oracle on {total} frames "
               f"(N=64 and N=256)")


# -- 7. expansion-width trade-off (heavy) -----------------------------------------


def _fer_walk(code, q, seed, *, start, stop_below, target_fe, max_frames):
    pts = []
    snr = start
    while snr < start + 1.61:
        pt = simulate_point(code, ModeConfig.custom(L=8, q=q), "awgn", round(snr, 2),
                            crc=CRC32, seed=seed, target_fe=target_fe,
                            max_frames=max_frames, workers=WORKERS, batch_frames=256)
        pts.append(pt)
        print(f"  q={q} snr={pt.snr_db} fer={pt.fer:.5f} ({pt.frame_errors}/{pt.frames})",
              flush=True)
        if pt.fer < stop_below and pt.frame_errors >= 50:
            break
        snr += 0.1
    return pts


def _snr_at_fer(pts, level):
    xs = [p.snr_db for p in pts]
    ys = [np.log10(max(p.fer, 1e-12)) for p in pts]
    t = np.log10(level)
    for i in range(len(xs) - 1):
        if ys[i] >= t >= ys[i + 1]:
            w = (ys[i] - t) / (ys[i] - ys[i + 1])
            return xs[i] + w * (xs[i + 1] - xs[i])
    raise AssertionError(f"FER level {level} not bracketed by {list(zip(xs, ys))}")


@pytest.mark.heavy
def test_criterion_7_expansion_width_tradeoff():
    # (2048,1433) + CRC-32, L=8, eight-bit symbols, AWGN. Construction: the
    # erasure-recursion design at eps=0.32 (the q trade-off is construction
    # sensitive; see the decisions ledger).
    code = pk.select_frozen(pk.bec_reliability(11, 0.32), 1433, crc_width=32)
    seed = 1101
    kw = dict(start=2.9, stop_below=8.5e-4, target_fe=200, max_frames=400_000)
    q4 = _fer_walk(code, 4, seed, **kw)
    q2 = _fer_walk(code, 2, seed, **kw)
    s4 = _snr_at_fer(q4, 1e-3)
    s2 = _snr_at_fer(q2, 1e-3)
    gap = s2 - s4
    slope = abs(np.log10(q4[-1].fer / q4[0].fer) / (q4[-1].snr_db - q4[0].snr_db))
    print(f"  snr@1e-3: q4={s4:.3f} q2={s2:.3f} gap={gap:.3f} dB "
          f"(q4 slope {slope:.2f} dec/dB)", flush=True)
    assert 0.05 <= gap <= 0.15, f"q=2 shift {gap:.3f} dB outside 0.1 +- 0.05"
    # q=4 matches the exact q=8 unit at the two points bracketing the
    # crossing: confidence intervals overlap, or the implied shift is below
    # the criterion's own 0.05 dB resolution
    near = [p for p in q4 if p.fer >= 1e-3][-1:] + [p for p in q4 if p.fer < 1e-3][:1]
    assert len(near) == 2, "crossing not bracketed"
    for p4 in near:
        p8 = simulate_point(code, ModeConfig.custom(L=8, q=8), "awgn", p4.snr_db,
                            crc=CRC32, seed=seed, target_fe=0, max_frames=p4.frames,
                            workers=WORKERS, batch_frames=256)
        sigma = np.sqrt(p4.fer * (1 - p4.fer) / p4.frames
                        + p8.fer * (1 - p8.fer) / p8.frames)
        shift_db = abs(np.log10(max(p4.fer, 1e-9) / max(p8.fer, 1e-9))) / slope
        print(f"  snr={p4.snr_db}: fer q4={p4.fer:.5f} q8={p8.fer:.5f} "
              f"delta={abs(p4.fer - p8.fer):.2e} (3 sigma={3 * sigma:.2e}, "
              f"shift {shift_db:.3f} dB)", flush=True)
        assert (abs(p4.fer - p8.fer) <= max(3 * sigma, 2 / p4.frames)
                or shift_db <= 0.05)
    _report(7, f"q=2 curve sits {gap:.3f} dB right of q=4 at FER 1e-3 "
               f"(within 0.1 +- 0.05); q=4 matches q=8 within confidence")


# -- 8. mode ordering -------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_mode_ordering():
    code = pk.select_frozen(pk.ga_reliability(10, design_mean_llr(2.0)), 512,
                            crc_width=32)
    seed = 881
    fers = {}
    for snr in (1.0, 1.5, 2.0):
        row = {}
        for cfg in (ModeConfig("mode4"), ModeConfig("mode2"), ModeConfig.mode1()):
            pt = simulate_point(code, cfg, "awgn", snr, crc=CRC32, seed=seed,
                                target_fe=100, max_frames=60_000, workers=WORKERS,
                                batch_frames=64)
            assert pt.frame_errors >= 100, (snr, cfg.mode, pt)
            row[cfg.mode] = pt.fer
        assert row["mode4"] <= row["mode2"] <= row["mode1"], (snr, row)
        fers[snr] = row
    _report(8, "FER(mode4) <= FER(mode2) <= FER(mode1) at every grid point "
               f"({ {s: {m: round(v, 4) for m, v in r.items()} for s, r in fers.items()} })")


# -- 9. mode-variation properties --------------------------------------------------


def test_criterion_9_mode_variation():
    rng = np.random.default_rng(99)
    code = pk.select_frozen(pk.ga_reliability(10, design_mean_llr(2.0)), 512,
                            crc_width=32)
    _, llrs = make_noisy_frames(code, 1000, 1.5, rng, crc=CRC32)
    a, pa, _ = decode_frames(code, llrs, L=4, theta=code.N, crc=CRC32)
    b, pb, _ = decode_frames(code, llrs, L=4, theta=None, crc=CRC32)
    assert np.array_equal(a, b) and np.array_equal(pa, pb)

    seed = 991
    pts = {}
    for theta in (0, code.N // 2, code.N):
        pts[theta] = simulate_point(code, ModeConfig.mode4_1(theta), "awgn", 1.5,
                                    crc=CRC32, seed=seed, target_fe=150,
                                    max_frames=30_000, workers=WORKERS, batch_frames=64)
    thetas = sorted(pts)
    for lo, hi in zip(thetas, thetas[1:]):
        a, b = pts[lo], pts[hi]
        sigma = np.sqrt(a.fer * (1 - a.fer) / a.frames + b.fer * (1 - b.fer) / b.frames)
        assert a.fer >= b.fer - 2 * sigma, (lo, hi, a.fer, b.fer)
    _report(9, "theta=N bit-identical to plain list mode over 1000 frames; FER "
               f"nonincreasing in theta: "
               f"{ {t: round(p.fer, 4) for t, p in pts.items()} }")


# -- 10. determinism ----------------------------------------------------------------


def test_criterion_10_worker_determinism(tmp_path):
    codefile = tmp_path / "c256.json"
    assert main(["construct", "--channel", "bec", "--n", "256", "--k", "128",
                 "--param", "0.5", "--out", str(codefile)]) == 0
    args = ["simulate", "--code", str(codefile), "--mode", "mode2",
            "--snr", "1.5,2.5", "--frames", "2048", "--target-fe", "40",
            "--seed", "17", "--batch-frames", "64", "--out"]
    assert main(args + [str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert main(args + [str(tmp_path / "w2"), "--workers", "2"]) == 0
    b1 = (tmp_path / "w1.csv").read_bytes()
    b2 = (tmp_path / "w2.csv").read_bytes()
    assert b1 == b2
    _report(10, "CSV tallies byte-identical for workers=1 and workers=2 "
                f"({len(b1)} bytes)")
