import numpy as np
import pytest

import polarkit as pk
from polarkit.patterns import FrozenPattern

from conftest import make_noisy_frames
from oracle import (
    bruteforce_symbol_topL,
    exhaustive_ml,
    generator_matrix,
    matrix_encode,
    plain_sc,
    valid_symbols,
)


def test_generator_structure():
    G4 = generator_matrix(4)
    assert G4.sum(axis=1).tolist() == [1, 2, 2, 4]  # kernel row weights
    # the generator is self-inverse over GF(2)
    I = G4.astype(int) @ G4.astype(int) % 2
    assert np.array_equal(I, np.eye(4, dtype=int))


def test_matrix_encode_exhaustive_n16():
    vals = np.arange(1 << 16, dtype=np.int64)
    # spot-check a random subset of all 2^16 inputs against the fast transform
    rng = np.random.default_rng(0)
    pick = rng.choice(vals, size=4096, replace=False)
    u = ((pick[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    assert np.array_equal(matrix_encode(u), pk.polar_transform(u))


def test_valid_symbols_counts():
    assert len(valid_symbols(FrozenPattern.from_string("FFFFFFFF"))) == 1
    assert len(valid_symbols(FrozenPattern.from_string("FFFFFFFD"))) == 2
    assert len(valid_symbols(FrozenPattern.from_string("DDDDDDDD"))) == 256


def test_bruteforce_trivial_patterns(rng):
    pm = np.zeros((1, 1))
    llr = rng.standard_normal((1, 1, 8))
    for s, count in [("FFFFFFFF", 1), ("FFFFFFFD", 2)]:
        parents, syms, metrics = bruteforce_symbol_topL(pm, llr, FrozenPattern.from_string(s), 10)
        assert parents.shape[1] == count


def test_exhaustive_ml_noiseless(rng):
    code = pk.select_frozen(pk.bec_reliability(4, 0.5), 8)
    u = np.zeros(16, dtype=np.uint8)
    u[code.info_positions] = rng.integers(0, 2, 8)
    llr = (1.0 - 2.0 * pk.encode(code, u[code.info_positions]).astype(float)) * 10
    assert np.array_equal(exhaustive_ml(code, llr), u)


def test_exhaustive_ml_repetition_like(rng):
    # N=8, K=1: two codewords; the decision is the sign of the relevant LLR sum
    t = pk.bec_reliability(3, 0.5)
    code = pk.select_frozen(t, 1)
    cw1 = pk.encode(code, [1])
    for _ in range(50):
        llr = rng.standard_normal(8) * 2
        want = 1 if llr[cw1 == 1].sum() < 0 else 0
        got = exhaustive_ml(code, llr)[code.info_positions][0]
        assert got == want


def test_plain_sc_noiseless_and_frozen(rng):
    code = pk.select_frozen(pk.bec_reliability(5, 0.5), 16)
    u = np.zeros(32, dtype=np.uint8)
    u[code.info_positions] = rng.integers(0, 2, 16)
    llr = (1.0 - 2.0 * pk.encode(code, u[code.info_positions]).astype(float)) * 8
    got = plain_sc(code, llr)
    assert np.array_equal(got, u)
    noisy = plain_sc(code, rng.standard_normal((20, 32)))
    assert not noisy[:, code.frozen_mask.astype(bool)].any()


def test_plain_sc_batch_matches_single(rng):
    code = pk.select_frozen(pk.bec_reliability(4, 0.4), 9)
    _, llrs = make_noisy_frames(code, 16, 1.0, rng)
    batch = plain_sc(code, llrs)
    rows = np.array([plain_sc(code, row) for row in llrs])
    assert np.array_equal(batch, rows)


def test_caps():
    with pytest.raises(ValueError):
        generator_matrix(8192)
    code = pk.PolarCode(5, 25, np.r_[np.ones(7, np.uint8), np.zeros(25, np.uint8)])
    with pytest.raises(ValueError):
        exhaustive_ml(code, np.zeros(32))
