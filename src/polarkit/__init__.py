"""polarkit: polar-code codec library and Monte Carlo simulation toolkit."""

from .core import CRC32, CrcSpec, PolarCode, crc_append, encode, polar_transform
from .construction import (
    bec_reliability,
    design_mean_llr,
    ga_reliability,
    load_code_file,
    save_code_file,
    select_frozen,
    verify_reliability_ordering,
)
from .channel import frame_rng, quantize_llr
from .decoder import ModeConfig, decode_frames
from .patterns import extract_patterns

__version__ = "0.1.0"
