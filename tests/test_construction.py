import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.channel import noise_sigma2
from polarkit.construction import (
    ORDER_16,
    TAU_X_MAX,
    _exact_eps,
    _level_pairs,
    _mask_from_hex,
    _mask_to_hex,
    _tau_inverse_log,
    design_mean_llr,
    log_tau,
    verify_reliability_ordering,
)

from oracle import mask_to_hex_per_nibble, tau_linear


def test_bec_level1_and_level2_hand_values():
    t = pk.bec_reliability(2, 0.5)
    assert np.allclose(t.z[1], [0.75, 0.25], atol=1e-12)
    assert np.allclose(t.z[2], [0.9375, 0.5625, 0.4375, 0.0625], atol=1e-12)


def test_bec_values_inside_unit_interval():
    for eps in (0.1, 0.5, 0.9):
        t = pk.bec_reliability(8, eps)
        for i in range(1, 9):
            assert np.all(t.z[i] > 0) and np.all(t.z[i] < 1 + 1e-15)


def test_bec_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            pk.bec_reliability(3, eps)


def test_tau_spot_value():
    assert np.exp(log_tau(1.0)) == pytest.approx(0.6499, abs=2e-4)


def test_tau_inverse_round_trips():
    assert _tau_inverse_log(log_tau(1.0)) == pytest.approx(1.0, abs=1e-9)
    assert _tau_inverse_log(log_tau(50.0)) == pytest.approx(50.0, abs=1e-6)


def test_tau_inverse_log_clamps_at_domain_cap():
    # a log tau below any double's log, as deep GA levels reach, clamps at the
    # domain cap instead of failing
    assert float(_tau_inverse_log(np.array(-1e9))) == TAU_X_MAX


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-18.0, max_value=-0.05))
def test_tau_round_trip_in_y(ly):
    # y -> x -> tau(x) returns y for y across many decades
    y = float(np.exp(ly))
    x = _tau_inverse_log(np.log(y))
    assert np.exp(log_tau(x)) == pytest.approx(y, rel=1e-9, abs=1e-15)


def test_ga_level1_structure():
    for z0 in (0.5, 1.0, 4.0):
        t = pk.ga_reliability(1, z0)
        assert t.z[1][1] == pytest.approx(2 * z0, rel=1e-12)
        if log_tau(z0) <= 0:  # the fitted tau exceeds 1 below x ~ 0.048
            assert t.z[1][0] < z0 < t.z[1][1]


def test_ga_rejects_z0_that_is_not_finite_and_positive():
    for z0 in (0.0, -1.0, math.nan, math.inf, 1e307):  # 1e307 * 2**6 overflows
        with pytest.raises(ValueError, match="z0"):
            pk.ga_reliability(6, z0)
    for snr in (math.nan, math.inf, -math.inf, 1e308, -1e308):
        with pytest.raises(ValueError, match="design SNR"):
            design_mean_llr(snr)


def test_ga_deep_levels_stay_ordered_and_finite():
    z0 = 2 / noise_sigma2(4.0, 0.8)  # the channel LLR mean
    t = pk.ga_reliability(13, z0)
    top = t.z[13]
    assert np.all(np.isfinite(top)) and np.all(top > 0)
    # the two best synthetic channels must stay distinct (log-domain survival)
    best = np.sort(top)[-2:]
    assert best[0] != best[1]


def test_select_frozen_bec_n2():
    code = pk.select_frozen(pk.bec_reliability(1, 0.5), 1)
    assert np.array_equal(code.frozen_mask, [1, 0])


def test_select_frozen_bec_8_4_pattern():
    code = pk.select_frozen(pk.bec_reliability(3, 0.5), 4)
    assert "".join("DF"[b] for b in code.frozen_mask) == "FFFDFDDD"


def test_select_frozen_ga_n2():
    code = pk.select_frozen(pk.ga_reliability(1, 1.0), 1)
    assert np.array_equal(code.frozen_mask, [1, 0])


def test_select_frozen_monotone_invariance():
    t = pk.bec_reliability(6, 0.37)
    base = pk.select_frozen(t, 40).frozen_mask
    # any positive monotone transform of z leaves the ordering unchanged;
    # frozen_order already works on log z, so compare against a direct argsort
    z = t.z[6]
    direct = np.zeros(64, dtype=np.uint8)
    order = np.lexsort((np.arange(64), -z))
    direct[order[:24]] = 1
    assert np.array_equal(base, direct)


def test_select_frozen_k_range():
    t = pk.bec_reliability(3, 0.5)
    for bad in (0, 8, -1):
        with pytest.raises(ValueError):
            pk.select_frozen(t, bad)


def test_ordering_verifier_small_grid():
    rep = verify_reliability_ordering([Fraction(1, 2)], depth=3)
    assert rep.ok and rep.checks > 0


def test_ordering_verifier_spec_grid_depth4():
    grid = [Fraction(k, 100) for k in range(1, 100)]
    rep = verify_reliability_ordering(grid, depth=4)
    assert rep.ok
    assert rep.violations == []


def test_ordering_verifier_refuses_grid_values_outside_the_open_unit_interval():
    # each is refused with the verifier's own message, not the one Fraction
    # raises (OverflowError for inf, ValueError for nan and "abc")
    for bad in (math.inf, -math.inf, math.nan, "abc", None, [0.5], 0, 1, 1.5, -0.25,
                Fraction(3, 2), "1"):
        with pytest.raises(ValueError, match="grid values must be finite numbers in"):
            verify_reliability_ordering([Fraction(1, 2), bad], depth=2)


def test_ordering_verifier_takes_fractions_and_decimal_strings_exactly():
    exact = verify_reliability_ordering([Fraction(1, 10), Fraction(1, 3)], depth=5)
    assert verify_reliability_ordering(["0.1", "1/3"], depth=5) == exact
    # a float is taken at its exact binary value, not through its repr: the
    # float 0.1 is another rational than the decimal 0.1
    assert _exact_eps(0.1) == Fraction(0.1) != Fraction(1, 10)
    # a decimal string is its own rational, not its float's: 1 - 1e-20 lies
    # inside (0, 1), while its float is 1.0
    assert verify_reliability_ordering(["0.99999999999999999999"], depth=5).ok
    with pytest.raises(ValueError, match="got 1.0"):
        verify_reliability_ordering([float("0.99999999999999999999")], depth=5)


def test_ordering_margin_is_exact_to_its_two_decimals():
    # the float 0.1 and the decimal 0.1 lie about 5.6e-17 apart, relative, so
    # their least margins agree in the two decimals reported
    low = [verify_reliability_ordering([e], depth=8).min_rel_margin_log10
           for e in (0.1, Fraction(1, 10))]
    assert low == [-5.56, -5.56]
    # brute force: every claimed comparison's relative margin, exact, in log10
    grid = [Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)]
    least = 0.0
    for eps in grid:
        z = [eps]
        for level in range(1, 9):
            z = [v for p in z for v in (2 * p - p * p, p * p)]
            for hi, lo in _level_pairs(level):
                r = (z[hi] - z[lo]) / z[hi]
                least = min(least, math.log10(r.numerator) - math.log10(r.denominator))
    assert verify_reliability_ordering(grid, depth=8).min_rel_margin_log10 == round(least, 2)


def test_ordering_level3_index5_above_index4():
    # 1-based: z_{3,4} < z_{3,5} (the octet order places index 5 above 4)
    z = pk.bec_reliability(3, 0.5).z[3]
    assert z[3] < z[4]


def test_ordering_sixteen_chain_matches_catalog_order():
    # ORDER_16 is the catalog's freeze order shifted to 0-based offsets
    assert ORDER_16 == (0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15)


def test_log_tau_matches_linear_where_representable():
    # both branches against the directly evaluated specified form
    for x in (0.5, 3.0, 9.9, 10.0, 40.0, 200.0):
        assert log_tau(x) == pytest.approx(np.log(tau_linear(x)), rel=1e-12)
        assert np.exp(log_tau(x)) == pytest.approx(tau_linear(x), rel=1e-12)


def test_code_file_round_trip(tmp_path, rng):
    code = pk.select_frozen(pk.bec_reliability(5, 0.32), 20, crc_width=0)
    p = tmp_path / "code.json"
    pk.save_code_file(code, p)
    b1 = p.read_bytes()
    pk.save_code_file(code, p)
    assert p.read_bytes() == b1  # deterministic bytes
    back = pk.load_code_file(p)
    assert back.n == code.n and back.K == code.K
    assert np.array_equal(back.frozen_mask, code.frozen_mask)
    assert back.construction.channel == "bec"


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
def test_code_file_mask_round_trips_and_matches_the_nibble_writer(n, seed, data):
    N = 1 << n
    mask = np.random.default_rng(seed).integers(0, 2, N, dtype=np.uint8)
    mask[0], mask[-1] = 1, 0  # a code needs a frozen and an information position
    code = pk.PolarCode(n, N - int(mask.sum()), mask)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "code.json"
        pk.save_code_file(code, path)
        text = json.loads(path.read_text())["frozen_mask"]
        assert np.array_equal(pk.load_code_file(path).frozen_mask, mask)
    assert text == _mask_to_hex(mask) == mask_to_hex_per_nibble(mask)
    assert len(text) == -(-N // 4)
    assert np.array_equal(_mask_from_hex(text.upper(), N), mask)
    k = data.draw(st.integers(0, len(text) - 1))
    bad = data.draw(st.characters().filter(lambda c: c not in "0123456789abcdefABCDEF"))
    for wrong, message in ((text[:k] + bad + text[k + 1:], "not a hex digit"),
                           (text + "0", "length"), (text[1:], "length")):
        with pytest.raises(ValueError, match=message):
            _mask_from_hex(wrong, N)


def test_code_file_of_n2_is_one_short_character(tmp_path):
    code = pk.select_frozen(pk.bec_reliability(1, 0.5), 1)
    pk.save_code_file(code, tmp_path / "n2.json")
    assert json.loads((tmp_path / "n2.json").read_text())["frozen_mask"] == "1"
    assert np.array_equal(pk.load_code_file(tmp_path / "n2.json").frozen_mask, [1, 0])
    # its two high bits are padding, which must be 0
    for nibble, ch in enumerate("0123456789abcdef"):
        if nibble < 4:
            assert _mask_from_hex(ch, 2).tolist() == [nibble & 1, nibble >> 1]
        else:
            with pytest.raises(ValueError, match="past N"):
                _mask_from_hex(ch, 2)
