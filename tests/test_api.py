"""The package's public surface and its argument checks."""

import math
import types

import pytest

import fbmimo
from fbmimo import (ScalingPolicy, ceiling_fixed_B, error_ccdf, error_upper_bound,
                    expected_error, expected_neg_log2_error, expected_optimal_error,
                    feedback_bits, generate_codebook, miso_reference, mux_gain_prediction,
                    rate_gap_bound, rvq_bit_penalty, sample_error, zf_dpc_power_offset_db,
                    zf_perfect_sum_rate)
from fbmimo.errors import DomainError
from fbmimo.numerics import RngStream

# Every name is used by the engines, by figure/sweep/table/validate, or is
# one of the paper's closed forms that an acceptance test checks.  Two
# exceptions stay because perfbench/tracer.py patches them and fails
# without them: collect_zf_statistics, whose only other callers are tests,
# and rvq_bit_penalty, which acceptance test_10 also reads.
PUBLIC = {
    "CapacityError", "ConfigError", "DomainError", "InsufficientDataError", "SingularMatrixError",
    "MisoReference", "ScalingPolicy", "ThroughputCurve", "ceiling_fixed_B", "feedback_bits",
    "fit_multiplexing_gain", "horizontal_offset_db", "miso_reference", "mux_gain_prediction",
    "random_bf_sum_rate", "rate_gap_bound", "rvq_bit_penalty", "unitary_sum_rate",
    "zf_dpc_power_offset_db", "zf_perfect_sum_rate",
    "RngStream", "haar_unitary", "invert", "sample_complex_gaussian", "sample_isotropic_unit",
    "rzf_beamformers", "zf_beamformers",
    "Codebook", "error_ccdf", "error_upper_bound", "expected_error", "expected_neg_log2_error",
    "expected_optimal_error", "generate_codebook", "quantize", "sample_error",
    "sample_quantized_pair",
    "SimConfig", "collect_zf_statistics", "miso_feedback_throughput", "mu_throughput",
    "random_bf_throughput", "rate_gap", "tdma_throughput",
}


def test_public_surface():
    exported = {name for name, value in vars(fbmimo).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


NAN, INF = math.nan, math.inf
NON_FINITE_CALLS = {
    "zf_perfect_sum_rate(nan P)": lambda: zf_perfect_sum_rate(NAN, 3),
    "feedback_bits(nan snr)": lambda: feedback_bits(NAN, 4, 2.0),
    "feedback_bits(nan b)": lambda: feedback_bits(10.0, 4, NAN),
    "expected_error(nan B)": lambda: expected_error(4, NAN),
    "expected_error(nan M)": lambda: expected_error(NAN, 4),
    "error_upper_bound(nan B)": lambda: error_upper_bound(4, NAN),
    "expected_neg_log2_error(nan B)": lambda: expected_neg_log2_error(4, NAN),
    "expected_optimal_error(nan B)": lambda: expected_optimal_error(4, NAN),
    "error_ccdf(nan B)": lambda: error_ccdf(0.5, 4, NAN),
    "error_ccdf(nan z)": lambda: error_ccdf(NAN, 4, 8),
    "rate_gap_bound(nan P)": lambda: rate_gap_bound(NAN, 4, 8),
    "rate_gap_bound(nan B)": lambda: rate_gap_bound(10.0, 4, NAN),
    "miso_reference(nan B)": lambda: miso_reference(10.0, 4, NAN),
    "mux_gain_prediction(nan alpha)": lambda: mux_gain_prediction(NAN, 4),
    "rvq_bit_penalty(nan M)": lambda: rvq_bit_penalty(NAN),
    "zf_dpc_power_offset_db(nan M)": lambda: zf_dpc_power_offset_db(NAN),
    "sample_error(nan B)": lambda: sample_error(4, NAN, RngStream(0, 0).generator(), size=3),
    "ceiling_fixed_B(inf B)": lambda: ceiling_fixed_B(3, INF),
    "ceiling_fixed_B(nan B)": lambda: ceiling_fixed_B(3, NAN),
    "ScalingPolicy.fixed(inf)": lambda: ScalingPolicy.fixed(INF),
    "ScalingPolicy.fixed(nan)": lambda: ScalingPolicy.fixed(NAN),
    "generate_codebook(inf B)": lambda: generate_codebook(3, INF, RngStream(0, 0).generator()),
    "generate_codebook(nan B)": lambda: generate_codebook(3, NAN, RngStream(0, 0).generator()),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
