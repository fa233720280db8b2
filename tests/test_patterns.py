import pytest

import polarkit as pk
from polarkit.patterns import (
    CATALOGS,
    RATE_R2_PATTERNS,
    FrozenPattern,
    NodeKind,
    census_over_all_k,
    classify_node,
)


def test_catalog_sizes():
    assert len(CATALOGS[2]) == 3
    assert len(CATALOGS[4]) == 5
    assert len(CATALOGS[8]) == 9
    assert len(CATALOGS[16]) == 17
    assert len(RATE_R2_PATTERNS) == 6


def test_catalog_contents():
    assert set(CATALOGS[4]) == {"DDDD", "FDDD", "FFDD", "FFFD", "FFFF"}
    assert set(CATALOGS[8]) == {
        "DDDDDDDD", "FDDDDDDD", "FFDDDDDD", "FFFDDDDD", "FFFDFDDD",
        "FFFFFDDD", "FFFFFFDD", "FFFFFFFD", "FFFFFFFF"}
    assert set(RATE_R2_PATTERNS) < set(CATALOGS[8])


def test_classification():
    assert classify_node([1] * 8) is NodeKind.RATE0
    assert classify_node([0] * 8) is NodeKind.RATE1
    assert classify_node([1] * 7 + [0]) is NodeKind.REPETITION
    assert classify_node([1] * 15 + [0]) is NodeKind.REPETITION
    assert FrozenPattern.from_string("FFFDFDDD").kind is NodeKind.RATE_R2
    assert classify_node([0, 1] * 4) is NodeKind.OTHER
    for s in RATE_R2_PATTERNS:
        assert classify_node([1 if c == "F" else 0 for c in s]) is NodeKind.RATE_R2


def test_beta_gamma_decomposition():
    fp = FrozenPattern.from_string("FFFDFDDD")
    assert (fp.beta, fp.gamma) == (2, 1)
    assert fp.omega01 == (2, 3) and fp.omega11 == (4,)
    fp = FrozenPattern.from_string("FDDDDDDD")
    assert (fp.beta, fp.gamma) == (1, 3)
    fp = FrozenPattern.from_string("DDDDDDDD")
    assert (fp.beta, fp.gamma) == (0, 4)
    assert FrozenPattern.from_string("DFDDDDDD").has_df_pair


def test_pair_counts_cover_all_pairs():
    for s in CATALOGS[8]:
        fp = FrozenPattern.from_string(s)
        ff = sum(1 for i in range(4) if fp.mask[2 * i] == 1 and fp.mask[2 * i + 1] == 1)
        assert fp.beta + fp.gamma + ff == 4


def test_extract_patterns_bec_code():
    code = pk.select_frozen(pk.bec_reliability(6, 0.5), 32)
    symbols, census = pk.extract_patterns(code, 8)
    assert len(symbols) == 8
    assert census <= set(CATALOGS[8])
    with pytest.raises(ValueError):
        pk.extract_patterns(code, 3)


def test_bec_codes_have_no_df_pairs():
    for eps in (0.2, 0.5, 0.8):
        t = pk.bec_reliability(7, eps)
        for K in (16, 64, 100):
            code = pk.select_frozen(t, K)
            symbols, _ = pk.extract_patterns(code, 8)
            assert not any(s.has_df_pair for s in symbols)


def test_census_over_all_k_matches_direct(rng):
    t = pk.bec_reliability(5, 0.4)
    fast = census_over_all_k(t.frozen_order(), (4, 8))
    slow = {4: set(), 8: set()}
    for K in range(1, 32):
        code = pk.select_frozen(t, K)
        for M in (4, 8):
            _, c = pk.extract_patterns(code, M)
            slow[M] |= c
    assert fast[4] == slow[4] and fast[8] == slow[8]
