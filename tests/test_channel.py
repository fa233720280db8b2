import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit.channel import (
    awgn_llr,
    check_channel,
    check_quantizer,
    draw_frames,
    frame_rng,
    noise_sigma2,
    noise_to_llrs,
    quantize_llr,
)


def bec_row(x, eps, rng):
    """One codeword's erasure-channel LLRs from N uniforms of rng."""
    return noise_to_llrs(rng.random(len(x)), x, "bec", eps, 1.0)


def test_awgn_noiseless_limit_signs(rng):
    x = rng.integers(0, 2, size=256, dtype=np.uint8)
    llr = awgn_llr(x, 40.0, 0.5, frame_rng(3, 0))  # essentially noiseless
    assert np.array_equal((llr < 0).astype(np.uint8), x)


def test_awgn_llr_moments_on_all_zero():
    # mean 2/sigma^2 and variance 4/sigma^2, 1% tolerance over 1e6 samples
    n = 1_000_000
    ebno, rate = 2.0, 0.7
    s2 = noise_sigma2(ebno, rate)
    x = np.zeros(n, dtype=np.uint8)
    llr = awgn_llr(x, ebno, rate, frame_rng(12, 0))
    assert llr.mean() == pytest.approx(2.0 / s2, rel=0.01)
    assert llr.var() == pytest.approx(4.0 / s2, rel=0.01)


def test_awgn_determinism():
    x = np.zeros(64, dtype=np.uint8)
    a = awgn_llr(x, 1.0, 0.5, frame_rng(9, 41))
    b = awgn_llr(x, 1.0, 0.5, frame_rng(9, 41))
    c = awgn_llr(x, 1.0, 0.5, frame_rng(9, 42))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bec_llr_alphabet_and_rate():
    x = np.zeros(1_000_000, dtype=np.uint8)
    x[1::2] = 1
    llr = bec_row(x, 0.5, frame_rng(5, 0))
    vals = set(np.unique(llr))
    assert vals <= {-np.inf, 0.0, np.inf}
    erased = (llr == 0).mean()
    assert abs(erased - 0.5) < 0.002
    known = llr != 0
    assert np.array_equal(llr[known] < 0, x[known].astype(bool))


def test_bec_llr_no_erasure_limit():
    x = np.zeros(10_000, dtype=np.uint8)
    llr = bec_row(x, 1e-12, frame_rng(5, 1))
    assert np.all(llr != 0)


def test_quantize_saturation_and_zero():
    assert quantize_llr([100.0], bits=5, step=0.5)[0] == 7.5
    assert quantize_llr([-100.0], bits=5, step=0.5)[0] == -7.5
    assert quantize_llr([0.0], bits=5, step=0.5)[0] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.integers(2, 8), st.floats(0.01, 2.0))
def test_quantize_idempotent(v, bits, step):
    once = quantize_llr([v], bits, step)
    twice = quantize_llr(once, bits, step)
    assert np.array_equal(once, twice)


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize_llr([1.0], bits=1, step=0.5)
    with pytest.raises(ValueError):
        quantize_llr([1.0], bits=5, step=0.0)
    # past 1024 bits the limit 2**(bits-1) - 1 is no double; an infinite step
    # would turn 0 * inf into NaN
    for bits, step, message in ((1025, 0.5, "bits must lie in 2..1024"),
                                (5, np.inf, "step must be a finite number > 0"),
                                (5, np.nan, "step must be a finite number > 0")):
        with pytest.raises(ValueError, match=message):
            quantize_llr([1.0], bits=bits, step=step)


def test_quantize_refuses_a_step_of_none():
    # None stands for the default step only where a run knows its code rate
    with pytest.raises(ValueError, match="step must be a finite number > 0"):
        quantize_llr([1.0], 4, None)
    with pytest.raises(ValueError, match="step must be a finite number > 0"):
        check_quantizer(4, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantize_saturates_an_overflowing_ratio_without_a_warning():
    # llr / step overflows to +-inf under a subnormal step, and an infinite
    # LLR meets the widest quantizer's limit; the clip saturates both
    step = 1e-320
    got = quantize_llr([-3.0, 0.0, 2.5, 1e300, np.inf, -np.inf], 4, step)
    assert np.array_equal(got, np.array([-7.0, 0.0, 7.0, 7.0, 7.0, -7.0]) * step)
    assert np.array_equal(quantize_llr([np.inf, -np.inf, 1.0], 1024, 4.0),
                          [np.inf, -np.inf, 0.0])


def test_channel_param_validation():
    x = np.zeros((1, 8), dtype=np.uint8)
    with pytest.raises(ValueError):
        check_channel("fading", 1.0, 0.5)
    for eps in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            check_channel("bec", eps, 1.0)
    with pytest.raises(ValueError):
        awgn_llr(x[0], 2.0, 1.5, frame_rng(1, 0))  # rate outside (0, 1]
    with pytest.raises(ValueError, match="noise variance"):
        awgn_llr(x[0], 4000, 0.5, frame_rng(1, 0))  # 10**400 overflows
    with pytest.raises(ValueError, match="noise variance"):
        awgn_llr(x[0], 3080, 0.5, frame_rng(1, 0))  # subnormal 1e-308: 2y / sigma^2 overflows
    # the smallest normal variances still give finite LLRs, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(awgn_llr(x[0], 3076, 0.5, frame_rng(1, 0))).all()


@pytest.mark.parametrize("channel,param", [("awgn", 1.0), ("bec", 0.4)])
def test_channel_rows_use_their_own_streams(channel, param, rng):
    x = rng.integers(0, 2, size=(5, 64), dtype=np.uint8)
    got = np.stack([awgn_llr(x[i], param, 0.5, frame_rng(7, 10 + i)) if channel == "awgn"
                    else bec_row(x[i], param, frame_rng(7, 10 + i)) for i in range(5)])
    # bit for bit the closed form, evaluated on whole arrays
    noise = np.stack([frame_rng(7, 10 + i).standard_normal(64) if channel == "awgn"
                      else frame_rng(7, 10 + i).random(64) for i in range(5)])
    if channel == "awgn":
        s2 = noise_sigma2(param, 0.5)
        want = 2.0 * ((1.0 - 2.0 * x.astype(np.float64)) + np.sqrt(s2) * noise) / s2
    else:
        want = np.where(noise < param, 0.0, np.where(x == 0, np.inf, -np.inf))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**63),
       st.integers(1, 2100) | st.sampled_from([32, 62, 128, 512, 1401]),
       st.integers(1, 3), st.sampled_from(["awgn", "bec"]))
def test_draw_frames_replays_integers_then_noise(seed, start, P, count, channel):
    # draw_frames reads the payload bits off raw words; they must be the
    # bits integers() draws, from the same words, so a numpy release that
    # changes its bounded uint8 draw fails here (P % 8 != 0 and odd uint32
    # counts included; 1401 is the payload of (2048, 1433) with CRC-32)
    N = 24
    payloads, noise = draw_frames(seed, start, count, P, channel, N)
    assert payloads.dtype == np.uint8 and payloads.shape == (count, P)
    assert noise.shape == (count, N)
    for i in range(count):
        rng = frame_rng(seed, start + i)
        assert np.array_equal(payloads[i], rng.integers(0, 2, P, dtype=np.uint8))
        want = rng.standard_normal(N) if channel == "awgn" else rng.random(N)
        assert noise[i].tobytes() == want.tobytes()
