"""Pooled (group) testing as channel coding, at desk scale.

Random pooling matrices, three test channels (noise-free, additive false
alarms, per-participant dilution), exhaustive maximum-likelihood decoding,
Monte Carlo error estimation under average / worst-case / partial
criteria, and the matching information-theoretic test-count bounds.
"""

from .bounds import (
    ACHIEVABLE,
    BOUND_CSV_HEADER,
    FANO,
    BoundReport,
    achievable_tests,
    additive_converse,
    binary_entropy,
    fano_lower_bound,
    gallager_e0,
    log2_binom,
    mi_bruteforce,
    mutual_information,
    mutual_information_by_overlap,
    pei_upper_bound,
)
from .decoder import DecodeResult, log_likelihood, miss_distance, ml_decode
from .errors import CapacityError, ParameterError
from .model import (
    ADDITIVE,
    DILUTION,
    NOISE_FREE,
    Codebook,
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    apply_channel,
    generate_codebook,
    noiseless_outcome,
)
from .montecarlo import (
    ESTIMATE_CSV_HEADER,
    ErrorEstimate,
    MinimalTResult,
    ci_half_width,
    empirical_pei_profile,
    estimate_average_error,
    estimate_partial_error,
    estimate_sweep,
    estimate_worstcase_error,
    find_minimal_t,
)

__version__ = "0.2.0"
