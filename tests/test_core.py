import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.core import CRC32, CrcSpec, bitrev_indices, crc_check_rows, crc_remainder_rows

from oracle import crc_register_bit_serial, matrix_encode


def test_encode_tiny_hand_values():
    assert np.array_equal(pk.polar_transform([0, 0]), [0, 0])
    assert np.array_equal(pk.polar_transform([0, 1]), [1, 1])
    assert np.array_equal(pk.polar_transform([0, 0, 0, 1]), [1, 1, 1, 1])


def test_encode_validates_frozen_positions():
    # encode takes the K info bits, so no input can set a frozen position: a
    # full N-bit word, another length or a non-bit value is refused
    code = pk.select_frozen(pk.bec_reliability(2, 0.5), 2)
    u = np.zeros(4, dtype=np.uint8)
    u[np.flatnonzero(code.frozen_mask)[0]] = 1
    for bad in (u, [0, 1, 1], [1], [0, 2], [[[0, 1]]]):
        with pytest.raises(ValueError):
            pk.encode(code, bad)
    for info in ([0, 1], [1, 0], [1, 1]):
        word = pk.polar_transform(pk.encode(code, info))  # the transform is an involution
        assert np.array_equal(word[code.info_positions], info)
        assert not word[code.frozen_mask == 1].any()


def test_encode_rows_match_vectors(rng):
    code = pk.select_frozen(pk.bec_reliability(6, 0.4), 29)
    info = rng.integers(0, 2, (5, code.K), dtype=np.uint8)
    got = pk.encode(code, info)
    assert got.shape == (5, code.N)
    assert np.array_equal(got, np.stack([pk.encode(code, row) for row in info]))
    assert pk.encode(code, info[:0]).shape == (0, code.N)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 11), st.sampled_from(["vector", "rows", "stack", "broadcast", "transposed"]),
       st.sampled_from([np.uint8, np.bool_, np.int64]), st.integers(1, 4), st.integers(0, 2**30))
def test_encode_matches_matrix_oracle(n, layout, dtype, r, seed):
    # n = 0..11 runs the byte stages (N < 8), every word stage and the
    # in-word shifts; broadcast and transposed inputs are not C-contiguous
    rng = np.random.default_rng(seed)
    N = 1 << n
    if layout == "broadcast":
        u = np.broadcast_to(rng.integers(0, 2, N).astype(dtype), (r, N))
    elif layout == "transposed":
        u = rng.integers(0, 2, (N, r)).astype(dtype).T
    else:
        lead = {"vector": (), "rows": (r,), "stack": (r, 2)}[layout]
        u = rng.integers(0, 2, lead + (N,)).astype(dtype)
    before = u.copy()
    got = pk.polar_transform(u)
    assert got.dtype == np.uint8 and got.shape == u.shape
    assert np.array_equal(got, matrix_encode(u.reshape(-1, N)).reshape(u.shape))
    assert np.array_equal(u, before)  # the caller's array is left alone


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**30))
def test_encode_is_linear(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    both = pk.polar_transform(u[0] ^ u[1])
    assert np.array_equal(both, pk.polar_transform(u[0]) ^ pk.polar_transform(u[1]))


def test_transform_is_involution(rng):
    u = rng.integers(0, 2, size=64, dtype=np.uint8)
    assert np.array_equal(pk.polar_transform(pk.polar_transform(u)), u)


def test_bit_reverse_permute():
    assert np.array_equal(bitrev_indices(1), [0, 1])
    assert np.array_equal(bitrev_indices(2), [0, 2, 1, 3])
    sym = np.array(list("abcdefgh"))
    assert "".join(sym[bitrev_indices(3)]) == "aecgbfdh"
    with pytest.raises(ValueError, match="power of two"):
        pk.polar_transform(np.zeros(6, dtype=np.uint8))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**30))
def test_bit_reverse_is_involution(n, seed):
    v = np.random.default_rng(seed).permutation(1 << n)
    assert np.array_equal(v[bitrev_indices(n)][bitrev_indices(n)], v)


# -- CRC ---------------------------------------------------------------------


def test_crc_round_trip(rng):
    for _ in range(20):
        msg = rng.integers(0, 2, size=int(rng.integers(1, 200)), dtype=np.uint8)
        assert crc_check_rows(pk.crc_append(msg))[0]


def test_crc_single_bit_flip_detected(rng):
    msg = rng.integers(0, 2, size=120, dtype=np.uint8)
    word = pk.crc_append(msg)
    for pos in [0, 1, 57, len(word) - 1]:
        bad = word.copy()
        bad[pos] ^= 1
        assert not crc_check_rows(bad)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 150), st.integers(0, 10**9))
def test_crc_flip_property(seed, length, poschoice):
    rng = np.random.default_rng(seed)
    word = pk.crc_append(rng.integers(0, 2, size=length, dtype=np.uint8))
    bad = word.copy()
    bad[poschoice % len(word)] ^= 1
    assert not crc_check_rows(bad)[0]


def test_crc32_matches_zlib_on_bytes(rng):
    # byte streams fed LSB-first per byte reproduce the zlib CRC-32
    data = bytes(rng.integers(0, 256, size=37, dtype=np.uint8))
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    got = pk.crc_append(bits, CRC32)[-32:]
    want = zlib.crc32(data)
    assert int((got * (1 << np.arange(32))).sum()) == want


def test_crc_appended_length_for_long_payload(rng):
    info = rng.integers(0, 2, size=1401, dtype=np.uint8)
    assert len(pk.crc_append(info)) == 1433


def test_crc_check_rows_matches_scalar(rng):
    payloads = rng.integers(0, 2, size=(8, 64), dtype=np.uint8)
    words = pk.crc_append(payloads)
    assert np.array_equal(words, [pk.crc_append(p) for p in payloads])
    words[3, 5] ^= 1
    words[6, -1] ^= 1
    got = crc_check_rows(words)
    assert got.tolist() == [crc_check_rows(w)[0] for w in words]
    assert got.tolist() == [True, True, True, False, True, True, False, True]
    # unreflected CRCs emit the register MSB first
    spec = CrcSpec(width=8, polynomial=0x07, init=0, xor_out=0, reflect=False)
    reg = int(crc_register_bit_serial(payloads[:1], spec)[0])
    tail = pk.crc_append(payloads[0], spec)[-8:]
    assert int("".join(map(str, tail)), 2) == reg
    assert crc_check_rows(pk.crc_append(payloads, spec), spec).all()


def bit_serial_tails(rows, spec):
    """CRC tails from the bit-serial register: LSB first when reflected,
    MSB first otherwise."""
    if spec.reflect:
        shifts = np.arange(spec.width, dtype=np.uint64)
    else:
        shifts = np.arange(spec.width - 1, -1, -1, dtype=np.uint64)
    regs = crc_register_bit_serial(rows, spec)
    return ((regs[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


CRC_SPECS = [
    CrcSpec(width=8, polynomial=0x07, init=0, xor_out=0, reflect=False),
    CrcSpec(width=8, polynomial=0x31, init=0xFF, xor_out=0x5A, reflect=True),
    CrcSpec(width=11, polynomial=0x385, init=0x01A, xor_out=0, reflect=False),
    CrcSpec(width=11, polynomial=0x385, init=0, xor_out=0x7FF, reflect=True),
    CrcSpec(width=16, polynomial=0x1021, init=0xFFFF, xor_out=0, reflect=False),
    CrcSpec(width=16, polynomial=0x8005, init=0, xor_out=0xFFFF, reflect=True),
    CrcSpec(width=32, polynomial=0x04C11DB7, init=0, xor_out=0, reflect=False),
    CRC32,
    CrcSpec(width=64, polynomial=0x42F0E1EBA9EA3693, init=2**64 - 1, xor_out=2**64 - 1),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CRC_SPECS), st.integers(1, 1500), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_affine_crc_matches_bit_serial(spec, length, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(count, length), dtype=np.uint8)
    regs = crc_remainder_rows(rows, spec)
    assert regs.dtype == np.uint64
    assert np.array_equal(regs, crc_register_bit_serial(rows, spec))
    assert np.array_equal(crc_remainder_rows(rows[0], spec), regs[:1])
    words = pk.crc_append(rows, spec)
    assert np.array_equal(words[:, length:], bit_serial_tails(rows, spec))
    assert np.array_equal(pk.crc_append(rows[0], spec), words[0])
    bad = words.copy()
    bad[np.arange(count), rng.integers(0, length + spec.width, count)] ^= rng.integers(
        0, 2, count, dtype=np.uint8)
    want = (bit_serial_tails(bad[:, :length], spec) == bad[:, length:]).all(axis=1)
    assert np.array_equal(crc_check_rows(bad, spec), want)


def test_crc_spec_validation():
    with pytest.raises(ValueError):
        CrcSpec(width=0, polynomial=1, init=0, xor_out=0)
    with pytest.raises(ValueError):
        CrcSpec(width=4, polynomial=0x10, init=0, xor_out=0)  # degree too high
    # init and xor_out are width-bit register values: a bit above the width
    # would shift into a reflected register
    for init, xor_out in ((0x100, 0), (0, 0x100), (-1, 0)):
        with pytest.raises(ValueError, match=r"init and xor_out must lie in 0\.\.2\*\*8 - 1"):
            CrcSpec(width=8, polynomial=0x07, init=init, xor_out=xor_out)
    with pytest.raises(ValueError):
        crc_check_rows(np.zeros(32, dtype=np.uint8))  # not longer than the CRC
    with pytest.raises(ValueError):
        pk.crc_append([0, 2, 1])  # not a bit vector


@pytest.mark.parametrize("bad", [
    np.full((2, 40), 2, np.uint8),  # not bits
    np.zeros((2, 0), np.uint8),  # empty rows
    [],
    np.zeros((1, 2, 40), np.uint8),  # not a vector or matrix
])
def test_crc_functions_share_one_input_rule(bad):
    for f in (crc_remainder_rows, pk.crc_append, crc_check_rows):
        with pytest.raises(ValueError, match="^CRC input must be a nonempty bit vector"):
            f(bad)


def test_crc_input_rule_covers_the_tail_and_takes_zero_rows():
    word = pk.crc_append(np.zeros(40, dtype=np.uint8))
    word[-1] = 2
    with pytest.raises(ValueError, match="nonempty bit vector"):
        crc_check_rows(word)
    # a batch of no frames is no error: each function answers with no rows
    none = np.zeros((0, 40), dtype=np.uint8)
    assert crc_remainder_rows(none).shape == (0,)
    assert pk.crc_append(none).shape == (0, 72)
    assert crc_check_rows(none).shape == (0,)


def test_crc_width_above_64_rejected():
    # the register is a uint64: a wider CRC is refused when it is described,
    # not when crc_append overflows on it
    for width in (65, 70):
        with pytest.raises(ValueError, match=r"CRC width must lie in 1\.\.64"):
            CrcSpec(width=width, polynomial=1 << (width - 1) | 1, init=0, xor_out=0)
    spec = CrcSpec(width=64, polynomial=1 << 63 | 1, init=0, xor_out=0)
    assert crc_check_rows(pk.crc_append(np.ones((2, 100), dtype=np.uint8), spec), spec).all()


def test_polar_code_validation():
    with pytest.raises(ValueError):
        pk.PolarCode(2, 2, [1, 1, 1, 0])  # weight mismatch
    with pytest.raises(ValueError):
        pk.PolarCode(2, 4, [0, 0, 0, 0])  # K == N
    code = pk.PolarCode(2, 2, [1, 0, 1, 0])
    assert code.N == 4 and code.payload_bits == 2
    assert np.array_equal(code.info_positions, [1, 3])
