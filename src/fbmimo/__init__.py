"""Finite-rate-feedback multiuser MIMO downlink: simulation and closed forms."""

from .bounds import (MisoReference, ScalingPolicy, ThroughputCurve, ceiling_fixed_B,
                     feedback_bits, fit_multiplexing_gain, horizontal_offset_db,
                     miso_reference, mux_gain_prediction, rate_gap_bound,
                     rvq_bit_penalty, zf_dpc_power_offset_db)
from .errors import (CapacityError, ConfigError, DomainError, InsufficientDataError,
                     SingularMatrixError)
from .numerics import (RngStream, angle_sin2, beta_fn, haar_unitary, invert,
                       ln_gamma, sample_complex_gaussian, sample_isotropic_unit)
from .precoder import BeamformerSet, rzf_beamformers, sinr, zf_beamformers, zf_rates_perfect_csit
from .quantizer import (Codebook, QuantizationOutcome, error_ccdf, error_upper_bound,
                        expected_error, expected_neg_log2_error, expected_optimal_error,
                        generate_codebook, neg_log2_error_bounds, optimal_error_cdf,
                        quantize, sample_error, sample_errors_brute, sample_quantized_pair)
from .simulate import (SimConfig, collect_zf_statistics,
                       miso_feedback_throughput, mu_throughput, random_bf_throughput,
                       rate_gap, tdma_throughput)

__version__ = "0.1.0"
