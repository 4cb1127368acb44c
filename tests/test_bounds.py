import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fbmimo.bounds import (ScalingPolicy, ThroughputCurve, ceiling_fixed_B, feedback_bits,
                           fit_multiplexing_gain, horizontal_offset_db, miso_reference,
                           mux_gain_prediction, rate_gap_bound, rvq_bit_penalty,
                           zf_dpc_power_offset_db)
from fbmimo.errors import DomainError, InsufficientDataError
from fbmimo.numerics import LOG2E, LOG2_10


def _curve(snr, mean, label="c"):
    snr = np.asarray(snr, dtype=float)
    return ThroughputCurve(label=label, snr_db=snr, mean_bps_hz=np.asarray(mean, dtype=float),
                           std_err=np.zeros(len(snr)), trials=np.zeros(len(snr), dtype=int),
                           M=4, K=4, policy="test", precoder="ZF", seed=0)


class TestScalingPolicy:
    def test_fixed(self):
        p = ScalingPolicy.fixed(10)
        assert p.bits(0.0, 5) == 10.0
        assert p.bits(40.0, 5) == 10.0
        assert p.describe() == "fixed_B=10"

    def test_exact_scaled(self):
        p = ScalingPolicy.exact_scaled(2.0)
        np.testing.assert_allclose(p.bits(20.0, 5), 4.0 * math.log2(100.0), rtol=1e-12)
        assert p.bits(-10.0, 5) == 0.0

    def test_approx_3db(self):
        p = ScalingPolicy.approx_3db(2.0)
        np.testing.assert_allclose(p.bits(10.0, 4), 10.0, rtol=1e-12)
        np.testing.assert_allclose(p.bits(30.0, 5), 40.0, rtol=1e-12)

    def test_alpha_scaled(self):
        p = ScalingPolicy.alpha_scaled(1.5)
        np.testing.assert_allclose(p.bits(30.0, 4), 1.5 * 3.0 * LOG2_10, rtol=1e-12)

    def test_field_consistency_enforced(self):
        with pytest.raises(DomainError):
            ScalingPolicy(kind="fixed_B")
        with pytest.raises(DomainError):
            ScalingPolicy(kind="exact_scaled", b_gap=1.0)
        with pytest.raises(DomainError):
            ScalingPolicy(kind="fixed_B", B_fixed=4, b_gap=2.0)
        with pytest.raises(DomainError):
            ScalingPolicy(kind="alpha_scaled", alpha=-1.0)
        with pytest.raises(DomainError):
            ScalingPolicy(kind="nonsense", B_fixed=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, value):
        # NaN passes every comparison-based check and would run with 0 bits
        for make in (ScalingPolicy.exact_scaled, ScalingPolicy.approx_3db,
                     ScalingPolicy.alpha_scaled):
            with pytest.raises(DomainError, match="finite"):
                make(value)


class TestThroughputCurve:
    def test_requires_increasing_grid(self):
        with pytest.raises(DomainError):
            _curve([0.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_requires_nonnegative_std_err(self):
        snr = np.array([0.0, 5.0])
        with pytest.raises(DomainError):
            ThroughputCurve(label="c", snr_db=snr, mean_bps_hz=np.ones(2),
                            std_err=np.array([0.1, -0.1]), trials=np.ones(2, dtype=int),
                            M=2, K=2, policy="p", precoder="ZF", seed=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            _curve([0.0, 5.0], [1.0, 2.0, 3.0])


class TestRateGapBound:
    def test_zero_bits_value(self):
        np.testing.assert_allclose(rate_gap_bound(10.0, 4, 0), math.log2(11.0), rtol=1e-12)

    def test_exact_scaling_pins_gap_to_one(self):
        for m in (2, 3, 5, 8):
            for snr_db in (5.0, 20.0, 35.0):
                b = feedback_bits(snr_db, m, 2.0, mode="exact")
                np.testing.assert_allclose(rate_gap_bound(10 ** (snr_db / 10), m, b), 1.0,
                                           rtol=1e-10)

    def test_monotone_in_bits(self):
        vals = [rate_gap_bound(100.0, 4, b) for b in range(0, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_gap_bound(0.0, 4, 3)
        with pytest.raises(DomainError):
            rate_gap_bound(10.0, 1, 3)


class TestCeiling:
    def test_loose_value(self):
        loose, _ = ceiling_fixed_B(5, 10)
        np.testing.assert_allclose(loose, 34.4417, atol=5e-4)

    def test_exact_value_two_antennas(self):
        loose, exact = ceiling_fixed_B(2, 0)
        np.testing.assert_allclose(exact, 2.0 * (1.0 + LOG2E), rtol=1e-12)
        assert loose == exact  # loose form undefined at M=2

    def test_exact_below_loose(self):
        for m in (3, 4, 5, 6, 8):
            for b in (0, 2, 6, 10, 16):
                loose, exact = ceiling_fixed_B(m, b)
                assert exact <= loose + 1e-12

    def test_exact_formula_oracle(self):
        # M (1 + (log2 e/(M-1)) H_{2^B} + log2 e H_{M-2}) by direct summation
        m, b = 4, 3
        h_words = sum(1.0 / k for k in range(1, 2 ** b + 1))
        h_m = sum(1.0 / k for k in range(1, m - 1))
        want = m * (1.0 + LOG2E / (m - 1) * h_words + LOG2E * h_m)
        np.testing.assert_allclose(ceiling_fixed_B(m, b)[1], want, rtol=1e-12)


class TestFeedbackBits:
    def test_ten_bits_at_ten_db(self):
        assert feedback_bits(10.0, 4, 2.0, mode="approx_3") == 10.0

    def test_exact_mode_value(self):
        np.testing.assert_allclose(feedback_bits(20.0, 5, 2.0, mode="exact"),
                                   4.0 * math.log2(100.0), rtol=1e-12)

    def test_clamped_at_zero(self):
        assert feedback_bits(-20.0, 4, 2.0, mode="approx_3") == 0.0

    def test_one_db_gap_costs_about_two_bits_per_antenna(self):
        # shrinking the target gap from 3 dB to 1 dB costs ~1.95 bits per (M-1)
        for m in (2, 4, 6):
            extra = feedback_bits(20.0, m, 10 ** 0.1, mode="approx_3") - \
                feedback_bits(20.0, m, 2.0, mode="approx_3")
            np.testing.assert_allclose(extra, 1.9496 * (m - 1), atol=0.01 * (m - 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            feedback_bits(10.0, 4, 1.0, mode="exact")
        with pytest.raises(DomainError):
            feedback_bits(10.0, 4, 2.0, mode="nonsense")

    @given(st.floats(min_value=-30.0, max_value=60.0), st.integers(min_value=2, max_value=10),
           st.floats(min_value=1.01, max_value=16.0))
    @settings(max_examples=100, deadline=None)
    def test_never_negative(self, snr_db, m, b):
        assert feedback_bits(snr_db, m, b, mode="exact") >= 0.0
        assert feedback_bits(snr_db, m, b, mode="approx_3") >= 0.0


class TestMuxGainPrediction:
    def test_values(self):
        assert mux_gain_prediction(1.5, 4) == 2.0
        assert mux_gain_prediction(3.9, 4) == 4.0
        assert mux_gain_prediction(3.0, 4) == 4.0  # saturates at M

    def test_domain(self):
        with pytest.raises(DomainError):
            mux_gain_prediction(-0.5, 4)


class TestRvqBitPenalty:
    def test_two_antenna_value(self):
        np.testing.assert_allclose(rvq_bit_penalty(2), 1.0, rtol=1e-12)

    def test_bounded_by_log2e(self):
        vals = [rvq_bit_penalty(m) for m in range(2, 65)]
        assert all(v < LOG2E for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))  # increases toward log2 e


class TestZfDpcPowerOffset:
    def test_values(self):
        np.testing.assert_allclose(zf_dpc_power_offset_db(5), 5.55, atol=0.005)
        np.testing.assert_allclose(zf_dpc_power_offset_db(2), 2.164, atol=0.001)

    def test_harmonic_identity(self):
        # sum_j j/(M-j) = M H_{M-1} - (M-1), so the offset has a second form
        for m in (2, 3, 4, 5, 6, 8, 16):
            harmonic = sum(1.0 / k for k in range(1, m))
            alt = 3.0 * LOG2E * (harmonic - (m - 1.0) / m)
            np.testing.assert_allclose(zf_dpc_power_offset_db(m), alt, rtol=1e-12)

    def test_grows_with_antennas(self):
        vals = [zf_dpc_power_offset_db(m) for m in range(2, 17)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestFitMultiplexingGain:
    def test_recovers_synthetic_slope(self):
        snr = np.arange(0.0, 45.0, 5.0)
        rate = 4.0 * snr * LOG2_10 / 10.0 + 7.0
        np.testing.assert_allclose(fit_multiplexing_gain(_curve(snr, rate)), 4.0, rtol=1e-9)

    def test_window_restricts_points(self):
        snr = np.arange(0.0, 45.0, 5.0)
        # slope 1 below 20 dB, slope 3 above; the top-20dB window sees only 3
        log2p = snr * LOG2_10 / 10.0
        rate = np.where(snr < 20.0, log2p, 3.0 * log2p - 2.0 * 20.0 * LOG2_10 / 10.0)
        np.testing.assert_allclose(fit_multiplexing_gain(_curve(snr, rate), window_db=20.0),
                                   3.0, rtol=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_multiplexing_gain(_curve([0.0, 5.0], [1.0, 2.0]), window_db=20.0)


class TestHorizontalOffset:
    def test_exact_shift_recovered(self):
        snr = np.arange(0.0, 31.0, 1.0)
        rate = np.log2(1.0 + 10 ** (snr / 10.0))
        ref = _curve(snr, rate)
        shifted = _curve(snr[:-6], np.interp(snr[:-6] - 6.0, snr, rate), label="shifted")
        got = horizontal_offset_db(ref, shifted, snr_min_db=10.0, snr_max_db=24.0)
        np.testing.assert_allclose(got, 6.0, atol=0.02)

    def test_out_of_range_raises(self):
        ref = _curve([0.0, 10.0], [1.0, 2.0])
        low = _curve([0.0, 10.0], [10.0, 20.0], label="too_high")
        with pytest.raises(InsufficientDataError):
            horizontal_offset_db(ref, low)


class TestMisoReference:
    def test_against_adaptive_quadrature(self):
        for p, m in [(1.0, 2), (100.0, 4), (1000.0, 8)]:
            ref = miso_reference(p, m, 3)
            oracle, _ = integrate.quad(
                lambda x: math.log2(1.0 + p * x) * x ** (m - 1) * math.exp(-x) / math.gamma(m),
                0.0, np.inf)
            np.testing.assert_allclose(ref.c_csit, oracle, rtol=1e-7)

    def test_no_csit_is_power_division(self):
        # C_no-CSIT(P) = C_CSIT(P/M) holds exactly
        for p in (1.0, 31.6, 316.0):
            np.testing.assert_allclose(miso_reference(p, 4, 3).c_nocsit,
                                       miso_reference(p / 4.0, 4, 3).c_csit, rtol=1e-12)

    def test_feedback_approx_is_effective_power_scaling(self):
        p, m, b = 100.0, 4, 3
        scale = 1.0 - 2.0 ** (-b / (m - 1.0))
        np.testing.assert_allclose(miso_reference(p, m, b).r_fb_approx,
                                   miso_reference(p * scale, m, b).c_csit, rtol=1e-12)

    def test_feedback_below_csit(self):
        ref = miso_reference(100.0, 4, 3)
        assert ref.r_fb_approx < ref.c_csit
        assert ref.c_nocsit < ref.c_csit
