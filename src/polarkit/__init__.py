"""polarkit: polar-code codec library and Monte Carlo simulation toolkit."""

from .core import (
    CRC32,
    Bits,
    Construction,
    CrcSpec,
    PolarCode,
    assemble_input,
    bit_reverse_permute,
    crc_append,
    encode,
    polar_transform,
)
from .construction import (
    ReliabilityTable,
    bec_reliability,
    design_mean_llr,
    ga_reliability,
    load_code_file,
    mean_llr_from_snr,
    save_code_file,
    select_frozen,
    tau,
    tau_inverse,
    verify_reliability_ordering,
)
from .channel import awgn_llr, bec_llr, frame_rng, noise_sigma2, quantize_llr
from .decoder import (
    ModeConfig,
    aml_expand_prune,
    decode_frames,
    f_llr,
    g_llr,
    leaf_metrics_rcc,
)
from .patterns import (
    EIGHT_BIT_PATTERNS,
    FOUR_BIT_PATTERNS,
    RATE_R2_PATTERNS,
    SIXTEEN_BIT_PATTERNS,
    TWO_BIT_PATTERNS,
    FrozenPattern,
    NodeKind,
    classify_node,
    extract_patterns,
)

__version__ = "0.1.0"
