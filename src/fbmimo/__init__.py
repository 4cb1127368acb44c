"""Finite-rate-feedback multiuser MIMO downlink: simulation and closed forms."""

import os

# Every BLAS/LAPACK call in the package works on stacks of small matrices
# (at most 8x8 in the figure presets) or goes through einsum, below
# OpenBLAS's threading threshold, so its worker pool never gets work;
# starting it still costs ~0.1 s of a second core per process (0.33 -> 0.20 s
# CPU for `figure compare88 --trials 300` on 2 CPUs).  Set before the first
# numpy import, the variable also covers scipy's own OpenBLAS and is
# inherited by child processes.  An explicit value wins, and it has no
# effect if numpy was imported first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import (MisoReference, ScalingPolicy, ThroughputCurve, ceiling_fixed_B,
                     feedback_bits, fit_multiplexing_gain, horizontal_offset_db,
                     miso_reference, mux_gain_prediction, random_bf_sum_rate,
                     rate_gap_bound, rvq_bit_penalty, unitary_sum_rate,
                     zf_dpc_power_offset_db, zf_perfect_sum_rate)
from .errors import (CapacityError, ConfigError, DomainError, InsufficientDataError,
                     SingularMatrixError)
from .numerics import (RngStream, haar_unitary, invert, sample_complex_gaussian,
                       sample_isotropic_unit)
from .precoder import rzf_beamformers, zf_beamformers
from .quantizer import (Codebook, error_ccdf, error_upper_bound, expected_error,
                        expected_neg_log2_error, expected_optimal_error, generate_codebook,
                        quantize, sample_error, sample_quantized_pair)
from .simulate import (SimConfig, collect_zf_statistics,
                       miso_feedback_throughput, mu_throughput, random_bf_throughput,
                       rate_gap, tdma_throughput)

__version__ = "0.1.0"
