"""The package's two input rules, at every entry point that takes bits or a
count: `core.as_bits` refuses any entry other than 0 and 1 before it casts,
and `core.as_count` refuses anything but an integer in range (bools, floats
and strings included) with a ValueError."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.channel import awgn_llr, default_quantize_step, frame_rng, quantize_llr
from polarkit.core import CrcSpec, as_bits, crc_check_rows, crc_remainder_rows
from polarkit.costs import count_ops
from polarkit.decoder import ModeConfig, aml_expand_prune, decode_frames
from polarkit.patterns import RATE_R2_PATTERNS, FrozenPattern, extract_patterns
from polarkit.sim import points_to_json, simulate_point, simulate_sweep

CODE = pk.select_frozen(pk.bec_reliability(5, 0.5), 16)
MASK = CODE.frozen_mask
LLRS = np.ones((1, CODE.N))
MIXED = FrozenPattern.from_string(RATE_R2_PATTERNS[0])


def _point(**kw):
    kw = {"seed": 1, "max_frames": 16, "batch_frames": 16, **kw}
    return simulate_point(CODE, ModeConfig.mode1(), "awgn", 2.0, **kw)


def _aml(q=2, L=2):
    return aml_expand_prune(np.zeros(2), np.ones((2, 8)), MIXED, q, L)


# Every count argument: (call on the value, a value out of range, a valid value).
COUNTS = {
    "PolarCode.n": (lambda v: pk.PolarCode(v, 16, MASK), 0, 5),
    "PolarCode.K": (lambda v: pk.PolarCode(5, v, MASK), 32, 16),
    "PolarCode.crc_width": (lambda v: pk.PolarCode(5, 16, MASK, crc_width=v), 16, 8),
    "CrcSpec.width": (lambda v: CrcSpec(v, 1, 0, 0), 65, 8),
    "CrcSpec.polynomial": (lambda v: CrcSpec(8, v, 0, 0), 256, 7),
    "CrcSpec.init": (lambda v: CrcSpec(8, 7, v, 0), 256, 255),
    "CrcSpec.xor_out": (lambda v: CrcSpec(8, 7, 0, v), 256, 0),
    "frame_rng.seed": (lambda v: frame_rng(v, 0), 2**64, 2**64 - 1),
    "frame_rng.frame_index": (lambda v: frame_rng(1, v), -1, 3),
    "quantize_llr.bits": (lambda v: quantize_llr([1.0], v, 0.5), 1025, 4),
    "ModeConfig.L": (lambda v: ModeConfig.custom(L=v), 0, 4),
    "ModeConfig.q": (lambda v: ModeConfig.custom(L=4, q=v), 257, 2),
    "ModeConfig.theta": (lambda v: ModeConfig.mode4_1(v), -1, 8),
    "decode_frames.L": (lambda v: decode_frames(CODE, LLRS, L=v), 0, 2),
    "decode_frames.q": (lambda v: decode_frames(CODE, LLRS, L=2, q=v), 0, 1),
    "decode_frames.theta": (lambda v: decode_frames(CODE, LLRS, L=2, theta=v), CODE.N + 1, 8),
    "aml_expand_prune.q": (lambda v: _aml(q=v), 0, 2),
    "aml_expand_prune.L": (lambda v: _aml(L=v), 0, 2),
    "simulate_point.seed": (lambda v: _point(seed=v), 2**64, 2),
    "simulate_point.max_frames": (lambda v: _point(max_frames=v), 0, 16),
    "simulate_point.batch_frames": (lambda v: _point(batch_frames=v), 0, 8),
    "simulate_point.workers": (lambda v: _point(workers=v), 0, 1),
    "simulate_point.target_fe": (lambda v: _point(target_fe=v), -1, 0),
    "bec_reliability.n": (lambda v: pk.bec_reliability(v, 0.5), 0, 3),
    "ga_reliability.n": (lambda v: pk.ga_reliability(v, 2.0), 0, 3),
    "select_frozen.K": (lambda v: pk.select_frozen(pk.bec_reliability(3, 0.5), v), 8, 4),
    "verify_reliability_ordering.depth":
        (lambda v: pk.verify_reliability_ordering([Fraction(1, 2)], depth=v), 11, 2),
    "count_ops.M": (lambda v: count_ops("dnc9", v, 4), 12, 16),
    "count_ops.q": (lambda v: count_ops("lcaml", 8, v), 0, 4),
    "extract_patterns.M": (lambda v: extract_patterns(CODE, v), 3, 8),
}


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_count_rule_at_every_site(site):
    call, out_of_range, valid = COUNTS[site]
    for bad in (2.5, True, out_of_range):
        with pytest.raises(ValueError):
            call(bad)
    call(np.int64(valid) if valid < 2**63 else np.uint64(valid))


def test_counts_are_stored_as_ints():
    cfg = ModeConfig.custom(L=np.int64(8), q=np.int64(4), theta=np.int32(16))
    code = pk.PolarCode(np.int64(5), np.int64(16), MASK, crc_width=np.int8(8))
    pt = _point(seed=np.uint64(3))
    assert all(type(v) is int for v in (cfg.L, cfg.q, cfg.theta, code.n, code.K,
                                         code.crc_width, pt.seed))
    assert json.loads(points_to_json([pt]))["results"][0]["seed"] == 3


def test_numpy_integer_quantizer_bits_act_as_ints():
    # 1 << 63 overflows a numpy int64, so a quantizer limit built that way
    # from np.int64(64) bits would be negative
    for bits in (4, 64, 1024):
        assert quantize_llr([3.0, -1e300], np.int64(bits), 0.5).tolist() == \
            quantize_llr([3.0, -1e300], bits, 0.5).tolist()
        assert default_quantize_step(np.int64(bits), 0.5) == default_quantize_step(bits, 0.5)


def test_a_seed_that_is_no_integer_writes_no_row():
    # frame_rng would cast 1.5 to seed 1 while the row recorded 1.5
    rows = []
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        simulate_sweep(CODE, ModeConfig.mode1(), "awgn", (2.0,), progress=rows.append,
                       seed=1.5, max_frames=16)
    assert rows == []


# Values no count accepts: floats with a fraction, nan, +-inf, bools, strings
# and negatives. A valid huge count is no hostile value: a list size of 2**40
# is a list decoder that grows its path count without bound.
HOSTILE = st.one_of(
    st.floats(-1e9, 1e9).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.text(max_size=4),
    st.integers(max_value=-1),
)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_hostile_counts_raise_value_error(data):
    site = data.draw(st.sampled_from(sorted(COUNTS)), label="site")
    call, out_of_range, _ = COUNTS[site]
    value = data.draw(st.one_of(HOSTILE, st.just(out_of_range)), label="value")
    with pytest.raises(ValueError):
        call(value)


BIT_ENTRY_POINTS = {
    "as_bits": as_bits,
    "polar_transform": pk.polar_transform,
    "encode": lambda b: pk.encode(pk.PolarCode(2, 2, [1, 0, 1, 0]), b),
    "crc_remainder_rows": crc_remainder_rows,
    "crc_append": pk.crc_append,
    "crc_check_rows": lambda b: crc_check_rows(np.r_[b, np.zeros(40)]),  # longer than a CRC
    "PolarCode.frozen_mask": lambda b: pk.PolarCode(1, 1, b),
    "FrozenPattern.from_mask": FrozenPattern.from_mask,
    "awgn_llr": lambda b: awgn_llr(b, 2.0, 0.5, np.random.default_rng(1)),
}


@pytest.mark.parametrize("bits", [[0.5, 1], [-1, 0], [2, 0]])
@pytest.mark.parametrize("entry", sorted(BIT_ENTRY_POINTS))
def test_bits_rule_at_every_entry_point(entry, bits):
    # checked before the uint8 cast, which makes 0 of 0.5 and an
    # OverflowError of -1
    with pytest.raises(ValueError):
        BIT_ENTRY_POINTS[entry](bits)
    BIT_ENTRY_POINTS[entry]([1, 0])
