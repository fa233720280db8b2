import numpy as np
import pytest

import polarkit as pk
from polarkit.channel import noise_sigma2


def make_noisy_frames(code, count, ebno_db, rng, crc=None):
    """Random payloads encoded and passed through BPSK-AWGN.

    Returns (info (count, K), llrs (count, N)). Uses a plain generator (not
    the per-frame counter streams) since these are test fixtures.
    """
    K, N = code.K, code.N
    payload_len = K - (crc.width if crc is not None else 0)
    payloads = rng.integers(0, 2, size=(count, payload_len), dtype=np.uint8)
    infos = pk.crc_append(payloads, crc) if crc is not None else payloads
    u = np.zeros((count, N), dtype=np.uint8)
    u[:, code.info_positions] = infos
    x = pk.polar_transform(u)
    s2 = noise_sigma2(ebno_db, K / N)
    y = (1.0 - 2.0 * x.astype(np.float64)) + np.sqrt(s2) * rng.standard_normal((count, N))
    return infos, 2.0 * y / s2


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
