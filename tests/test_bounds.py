import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fbmimo import bounds
from fbmimo.bounds import (ScalingPolicy, ThroughputCurve, ceiling_fixed_B, feedback_bits,
                           fit_multiplexing_gain, horizontal_offset_db, miso_reference,
                           mux_gain_prediction, random_bf_sum_rate, rate_gap_bound,
                           rvq_bit_penalty, unitary_sum_rate, zf_dpc_power_offset_db,
                           zf_perfect_sum_rate)
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
        with pytest.raises(DomainError, match="integer B_fixed"):
            ScalingPolicy(kind="fixed_B", value=4.5)
        with pytest.raises(DomainError, match="b_gap > 1"):
            ScalingPolicy(kind="exact_scaled", value=1.0)
        with pytest.raises(DomainError, match="b_gap > 1"):
            ScalingPolicy(kind="approx_3db_scaled", value=1.0)
        with pytest.raises(DomainError, match="alpha >= 0"):
            ScalingPolicy(kind="alpha_scaled", value=-1.0)
        with pytest.raises(DomainError, match="unknown policy kind"):
            ScalingPolicy(kind="nonsense", value=4)

    @pytest.mark.parametrize("make", [ScalingPolicy.exact_scaled, ScalingPolicy.approx_3db,
                                      ScalingPolicy.alpha_scaled])
    def test_scaled_bits_reject_a_bad_operating_point(self, make):
        # every scaled kind checks its point alike; alpha once gave 0.0 bits
        # for a NaN SNR and 3.32 bits at M = 1
        p = make(2.0)
        with pytest.raises(DomainError, match="snr_db must be a number"):
            p.bits(math.nan, 4)
        with pytest.raises(DomainError, match="M must be >= 2"):
            p.bits(10.0, 1)
        assert p.bits(-10.0, 4) == 0.0 and p.bits(30.0, 4) > 0.0

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


def _exp_e1_oracle(x: float) -> float:
    # e^x E1(x) by scipy; past x = 600 E1 nears the bottom of the float
    # range, so there the integral of e^-t / (x + t) over t >= 0 instead
    if x <= 600.0:
        return math.exp(x) * special.exp1(x)
    return integrate.quad(lambda t: math.exp(-t) / (x + t), 0.0, np.inf,
                          epsabs=0.0, epsrel=2e-14)[0]


class TestZfPerfectSumRate:
    def test_exp_e1_matches_scipy(self):
        xs = [*np.geomspace(1e-8, 1e3, 500), 1.0, np.nextafter(1.0, 0.0),
              np.nextafter(1.0, 2.0)]
        worst = max(abs(bounds._exp_en(1, x) / _exp_e1_oracle(x) - 1.0) for x in xs)
        assert worst <= 1e-13

    def test_equals_ergodic_rate_of_unit_exponential_gains(self):
        for p, m in [(1.0, 2), (10.0, 4), (100.0, 8)]:
            # within the quadrature's accuracy, as in TestMisoReference
            np.testing.assert_allclose(zf_perfect_sum_rate(p, m),
                                       m * bounds._ergodic_rate(p / m, 1), rtol=1e-7)
            np.testing.assert_allclose(zf_perfect_sum_rate(p, m),
                                       m * LOG2E * _exp_e1_oracle(m / p), rtol=1e-13)

    def test_domain(self):
        assert zf_perfect_sum_rate(0.0, 4) == 0.0
        assert zf_perfect_sum_rate(5e-324, 4) == 0.0  # M/P overflows to inf
        with pytest.raises(DomainError):
            zf_perfect_sum_rate(-1.0, 4)
        with pytest.raises(DomainError):
            zf_perfect_sum_rate(10.0, 0)
        for x in (0.0, math.nan):
            with pytest.raises(DomainError):
                bounds._exp_en(1, x)


def _old_exp_e1(x: float) -> float:
    # bounds._exp_e1 as it was before _exp_en generalized it, for the
    # bit-identity check below
    if x <= 1.0:
        total, term, k = 0.0, 1.0, 0
        while True:
            k += 1
            term *= -x / k
            total -= term / k
            if abs(term / k) <= 1e-17 * abs(total):
                return math.exp(x) * (total - np.euler_gamma - math.log(x))
    b = x + 1.0
    c, d = math.inf, 1.0 / b
    value, i = d, 0
    while True:
        i += 1
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        value *= delta
        if abs(delta - 1.0) <= 1e-16:
            return value


def _exp_en_oracle(n: int, x: float) -> mp.mpf:
    # e^x E_n(x) by the upward recurrence from mpmath's e^x E_1(x), with
    # enough extra digits to absorb the recurrence's growth x^n/n! for
    # x > n.  mpmath's own expint is not used: at 30 digits mpmath 1.3.0
    # gives expint(30, 100) 1.3e-13 off (its quadrature and this recurrence
    # agree), and expint(65, 227) does not return within minutes.
    x = mp.mpf(x)
    with mp.workdps(40 + (int(n * mp.log10(x)) if x > 1 else 0)):
        value = mp.exp(x) * mp.e1(x)
        for k in range(1, n):
            value = (1 - x * value) / k
        return +value


_AROUND_ONE = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]


class TestExpEn:
    def test_matches_mpmath(self):
        # bound fixed before the first run: 1e-13 relative, as for e^x E1(x)
        xs = [*np.geomspace(1e-8, 1e5, 80), *_AROUND_ONE]
        worst = max(abs(float(bounds._exp_en(n, x) / _exp_en_oracle(n, x)) - 1.0)
                    for n in range(1, 66) for x in xs)
        assert worst <= 1e-13

    def test_order_one_keeps_the_old_bits(self):
        # zf_perfect_sum_rate, and with it the ZF control's mean, must not move
        for x in [*np.geomspace(1e-8, 1e15, 2000), *_AROUND_ONE]:
            assert bounds._exp_en(1, x) == _old_exp_e1(x)

    def test_huge_arguments_end(self):
        # the old loop never ended from x = 1.8e16 (b + 2 == b)
        for n in (1, 8, 500):
            for x in (1e16, 1.9e16, 1e17, 1e300, math.inf):
                assert bounds._exp_en(n, x) == 1.0 / (x + n)

    def test_domain(self):
        for n, x in ((1, 0.0), (1, -1.0), (2, math.nan), (0, 1.0)):
            with pytest.raises(DomainError):
                bounds._exp_en(n, x)


class TestErgodicRate:
    def test_matches_mpmath_quadrature(self):
        # E[log2(1 + p X)], X ~ Gamma(M, 1), against a 30-digit quadrature;
        # bound fixed before the first run: 1e-13 relative.  The 160-node
        # Gauss-Laguerre rule it replaces was 4e-4 off at M=1, 2.5e-6 at M=2.
        mp.mp.dps = 30
        try:
            for m in range(1, 9):
                for p in np.geomspace(1e-6, 1e6, 13):
                    q = mp.mpf(float(p))
                    density = lambda x: x ** (m - 1) * mp.exp(-x) / mp.factorial(m - 1)
                    edges = sorted({0, 1 / q, 1, m, 4 * m, 16 * m})
                    want = mp.quad(lambda x: mp.log1p(q * x) * density(x),
                                   [*edges, mp.inf]) / mp.log(2)
                    got = bounds._ergodic_rate(float(p), m)
                    assert abs(float(got / want) - 1.0) <= 1e-13, (m, p)
        finally:
            mp.mp.dps = 15

    def test_zero_power(self):
        assert bounds._ergodic_rate(0.0, 4) == 0.0
        assert miso_reference(10.0, 4, 0).r_fb_approx == 0.0  # 1 - 2^0 = 0


class TestUnitarySumRate:
    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_matches_mpmath_quadrature(self, M):
        # Given the interference Y ~ Gamma(M - 1, 1), a user's rate
        # log2(1 + rho (X + Y)) - log2(1 + rho Y) with X ~ Exp(1) has mean
        # log2(e) e^c E1(c), c = 1/rho + Y; integrate that over Y at 30
        # digits.  Bound fixed before the first run: 1e-12 relative.
        mp.mp.dps = 30
        try:
            for P in (0.1, 1.0, 100.0):
                rho = mp.mpf(P) / M
                density = lambda y: y ** (M - 2) * mp.exp(-y) / mp.factorial(M - 2)
                per_user = lambda y: mp.exp(1 / rho + y) * mp.e1(1 / rho + y) * density(y)
                edges = sorted({0, 1, M, 4 * M, 16 * M})
                want = M * mp.quad(per_user, [*edges, mp.inf]) / mp.log(2)
                got = unitary_sum_rate(P, M)
                assert abs(float(got / want) - 1.0) <= 1e-12, (M, P)
        finally:
            mp.mp.dps = 15

    def test_edges_and_domain(self):
        assert unitary_sum_rate(0.0, 4) == 0.0
        assert unitary_sum_rate(1.0, 1) == bounds._ergodic_rate(1.0, 1)  # no interference
        for args in ((-1.0, 4), (1.0, 0)):
            with pytest.raises(DomainError):
                unitary_sum_rate(*args)


def _random_bf_oracle(P: float, M: int, K: int) -> mp.mpf:
    # M/ln 2 times the integral of (1 - F^K)/(1 + x), F the SINR CDF
    rho = mp.mpf(P) / M
    F = lambda x: 1 - mp.exp(-x / rho) / (1 + x) ** (M - 1)
    edges = sorted({0, 1, 10, rho / 10, rho, 10 * rho, 100 * rho})
    return M * mp.quad(lambda x: (1 - F(x) ** K) / (1 + x), [*edges, mp.inf]) / mp.log(2)


class TestRandomBfSumRate:
    @pytest.mark.parametrize("M, K", [(8, 8), (4, 4), (4, 10), (2, 2)])
    def test_matches_mpmath_quadrature(self, M, K):
        # bound fixed before the first run: 1e-12 relative, the accuracy
        # the cancellation guard admits
        mp.mp.dps = 30
        try:
            for snr_db in range(-10, 45, 5):
                P = 10.0 ** (snr_db / 10.0)
                got = random_bf_sum_rate(P, M, K)
                assert got is not None
                assert abs(float(got / _random_bf_oracle(P, M, K)) - 1.0) <= 1e-12, snr_db
        finally:
            mp.mp.dps = 15

    @pytest.mark.parametrize("M, K", [(2, 20), (4, 40), (8, 64), (8, 2000), (2, 2000),
                                      (1, 2000)])
    def test_guard_rejects_cancelling_sums(self, M, K):
        # C(2000, 1000) alone is past the float range; nothing may raise
        for P in (1e-300, 1e-3, 1.0, 100.0, 1e4, 1e300):
            assert random_bf_sum_rate(P, M, K) is None

    def test_edges_and_domain(self):
        assert random_bf_sum_rate(0.0, 4, 4) == 0.0
        assert random_bf_sum_rate(math.inf, 4, 4) is None
        assert random_bf_sum_rate(5e-324, 4, 4) == 0.0  # every j M/P is inf
        for args in ((-1.0, 4, 4), (math.nan, 4, 4), (1.0, 0, 4), (1.0, 4, 0)):
            with pytest.raises(DomainError):
                random_bf_sum_rate(*args)
