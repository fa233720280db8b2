import numpy as np
import pytest
from hypothesis import settings

import polarkit as pk
from polarkit.channel import noise_sigma2

# Every run draws the same examples, so a tier-1 outcome repeats; wider
# randomized search belongs to a separate, larger run.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


def make_noisy_frames(code, count, ebno_db, rng, crc=None):
    """Random payloads encoded and passed through BPSK-AWGN.

    Returns (info (count, K), llrs (count, N)). Uses a plain generator (not
    the per-frame counter streams) since these are test fixtures.
    """
    K, N = code.K, code.N
    payload_len = K - (crc.width if crc is not None else 0)
    payloads = rng.integers(0, 2, size=(count, payload_len), dtype=np.uint8)
    infos = pk.crc_append(payloads, crc) if crc is not None else payloads
    x = pk.encode(code, infos)
    s2 = noise_sigma2(ebno_db, K / N)
    y = (1.0 - 2.0 * x.astype(np.float64)) + np.sqrt(s2) * rng.standard_normal((count, N))
    return infos, 2.0 * y / s2


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
