import math

import numpy as np
import pytest
from scipy import integrate

from fbmimo.bounds import ScalingPolicy
from fbmimo.errors import CapacityError, ConfigError
from fbmimo.numerics import RngStream
from fbmimo.simulate import (BRUTE_FORCE, FAST_DECOMPOSITION, SimConfig, map_trials,
                             miso_feedback_throughput, mu_throughput, random_bf_throughput,
                             rate_gap, tdma_throughput)

B4 = ScalingPolicy.fixed(4)


def _cfg(**kw):
    base = dict(M=2, K=2, snr_grid_db=(10.0,), policy=B4, csit="quantized",
                path=FAST_DECOMPOSITION, trials=500, seed=7)
    base.update(kw)
    return SimConfig(**base)


def _scalar_rate_oracle(p_eff: float, m: int) -> float:
    # E[log2(1 + p_eff * X)], X ~ Gamma(m, 1), by adaptive quadrature
    val, _ = integrate.quad(
        lambda x: math.log2(1.0 + p_eff * x) * x ** (m - 1) * math.exp(-x) / math.gamma(m),
        0.0, np.inf)
    return val


class TestSimConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            _cfg(M=0)
        with pytest.raises(ConfigError):
            _cfg(K=0)
        with pytest.raises(ConfigError):
            _cfg(trials=0)
        with pytest.raises(ConfigError):
            _cfg(precoder="MRT")
        with pytest.raises(ConfigError):
            _cfg(csit="imperfect")
        with pytest.raises(ConfigError):
            _cfg(path="exhaustive")
        with pytest.raises(ConfigError):
            _cfg(snr_grid_db=())
        with pytest.raises(ConfigError):
            _cfg(snr_grid_db=(10.0, 5.0))

    def test_quantized_requires_policy(self):
        with pytest.raises(ConfigError):
            _cfg(policy=None)

    def test_grid_coerced_to_floats(self):
        cfg = _cfg(snr_grid_db=(0, 5, 10))
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0)


class TestMapTrials:
    def test_deterministic(self):
        fn = lambda gen: (gen.standard_normal(), gen.standard_normal())
        a = map_trials(300, 11, 2, fn)
        b = map_trials(300, 11, 2, fn)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, map_trials(300, 12, 2, fn))

    def test_row_t_draws_from_stream_t(self):
        fn = lambda gen: (gen.standard_normal(), gen.random())
        want = [fn(RngStream(3, t).generator()) for t in range(300)]
        assert np.array_equal(map_trials(300, 3, 2, fn), want)


class TestMuThroughput:
    def test_requires_square_system(self):
        with pytest.raises(ConfigError):
            mu_throughput(_cfg(M=3, K=2, policy=B4))

    def test_bit_identical_reruns(self):
        cfg = _cfg(trials=400)
        a = mu_throughput(cfg)
        b = mu_throughput(cfg)
        assert np.array_equal(a.mean_bps_hz, b.mean_bps_hz)
        assert np.array_equal(a.std_err, b.std_err)

    def test_perfect_csit_matches_scalar_oracle(self):
        # perfect-CSIT ZF reduces each user to an Exp(1) scalar channel at P/M
        m, p_db, trials = 3, 10.0, 6000
        cfg = SimConfig(M=m, K=m, snr_grid_db=(p_db,), csit="perfect", trials=trials, seed=5)
        curve = mu_throughput(cfg)
        want = m * _scalar_rate_oracle(10.0 ** (p_db / 10.0) / m, 1)
        assert abs(curve.mean_bps_hz[0] - want) < 3.0 * curve.std_err[0]

    def test_brute_and_fast_paths_agree(self):
        trials = 6000
        kw = dict(M=3, K=3, snr_grid_db=(10.0,), policy=ScalingPolicy.fixed(5), trials=trials)
        brute = mu_throughput(SimConfig(path=BRUTE_FORCE, seed=21, **kw))
        fast = mu_throughput(SimConfig(path=FAST_DECOMPOSITION, seed=22, **kw))
        tol = 3.0 * math.hypot(brute.std_err[0], fast.std_err[0])
        assert abs(brute.mean_bps_hz[0] - fast.mean_bps_hz[0]) < tol

    def test_brute_force_bit_budget_enforced(self):
        cfg = SimConfig(M=5, K=5, snr_grid_db=(40.0,), policy=ScalingPolicy.exact_scaled(2.0),
                        path=BRUTE_FORCE, trials=10)
        with pytest.raises(CapacityError):
            mu_throughput(cfg)

    def test_brute_force_rounds_bits_up(self):
        # alpha log2 P = log2(10) ~ 3.32 bits at 10 dB; brute force builds 4
        cfg = SimConfig(M=2, K=2, snr_grid_db=(10.0,), trials=300,
                        policy=ScalingPolicy.alpha_scaled(1.0), path=BRUTE_FORCE)
        assert mu_throughput(cfg).b_bits[0] == 4.0

    def test_reported_bits_follow_policy(self):
        pol = ScalingPolicy.exact_scaled(2.0)
        cfg = _cfg(M=3, K=3, snr_grid_db=(0.0, 10.0, 20.0), policy=pol, trials=300)
        curve = mu_throughput(cfg)
        want = [pol.bits(s, 3) for s in (0.0, 10.0, 20.0)]
        np.testing.assert_allclose(curve.b_bits, want, rtol=1e-12)
        perfect = mu_throughput(SimConfig(M=3, K=3, snr_grid_db=(10.0,), csit="perfect",
                                          trials=300))
        assert np.isnan(perfect.b_bits[0])

    def test_resamples_rare(self):
        curve = mu_throughput(_cfg(M=4, K=4, trials=2000, policy=B4))
        assert curve.resamples.sum() <= 20


class TestRateGap:
    def test_requires_quantized_square(self):
        with pytest.raises(ConfigError):
            rate_gap(_cfg(M=3, K=2, policy=B4))
        with pytest.raises(ConfigError):
            rate_gap(SimConfig(M=2, K=2, snr_grid_db=(10.0,), csit="perfect", trials=100))

    def test_gap_positive_and_reproducible(self):
        cfg = _cfg(M=3, K=3, snr_grid_db=(5.0, 15.0), policy=B4, trials=2000)
        gap = rate_gap(cfg)
        assert np.all(gap.mean_bps_hz > 0.0)
        assert np.array_equal(gap.mean_bps_hz, rate_gap(cfg).mean_bps_hz)

    def test_pairing_beats_independent_differencing(self):
        # shared channel draws cancel most variance in the gap estimate
        cfg = _cfg(M=2, K=2, snr_grid_db=(10.0,), policy=B4, trials=3000)
        gap = rate_gap(cfg)
        quant = mu_throughput(cfg)
        perfect = mu_throughput(SimConfig(M=2, K=2, snr_grid_db=(10.0,), csit="perfect",
                                          trials=3000, seed=cfg.seed + 1))
        unpaired = math.hypot(quant.std_err[0], perfect.std_err[0]) / cfg.M
        assert gap.std_err[0] < unpaired


class TestMisoEngine:
    def test_single_user_only(self):
        with pytest.raises(ConfigError):
            miso_feedback_throughput(_cfg(M=4, K=2, policy=B4))
        with pytest.raises(ConfigError):
            miso_feedback_throughput(SimConfig(M=4, K=1, snr_grid_db=(10.0,),
                                               csit="perfect", trials=100))

    def test_brute_and_fast_paths_agree(self):
        kw = dict(M=4, K=1, snr_grid_db=(5.0, 15.0), policy=ScalingPolicy.fixed(6), trials=6000)
        brute = miso_feedback_throughput(SimConfig(path=BRUTE_FORCE, seed=31, **kw))
        fast = miso_feedback_throughput(SimConfig(path=FAST_DECOMPOSITION, seed=32, **kw))
        for i in range(2):
            tol = 3.0 * math.hypot(brute.std_err[i], fast.std_err[i])
            assert abs(brute.mean_bps_hz[i] - fast.mean_bps_hz[i]) < tol

    def test_more_bits_help_pointwise(self):
        # fast path consumes identical draws at any B, and the error variate
        # shrinks monotonically in B, so the gain is trial-by-trial
        kw = dict(M=4, K=1, snr_grid_db=(0.0, 10.0, 20.0), trials=800, seed=9)
        low = miso_feedback_throughput(_cfg(policy=ScalingPolicy.fixed(2), **kw))
        high = miso_feedback_throughput(_cfg(policy=ScalingPolicy.fixed(8), **kw))
        assert np.all(high.mean_bps_hz > low.mean_bps_hz)


class TestTdma:
    def test_single_user_matches_oracle(self):
        p_db = 10.0
        cfg = SimConfig(M=4, K=1, snr_grid_db=(p_db,), csit="perfect", trials=6000, seed=13)
        curve = tdma_throughput(cfg)
        want = _scalar_rate_oracle(10.0 ** (p_db / 10.0), 4)
        assert abs(curve.mean_bps_hz[0] - want) < 3.0 * curve.std_err[0]

    def test_selection_gain(self):
        kw = dict(M=4, snr_grid_db=(10.0,), csit="perfect", trials=4000, seed=13)
        one = tdma_throughput(SimConfig(K=1, **kw))
        four = tdma_throughput(SimConfig(K=4, **kw))
        assert four.mean_bps_hz[0] > one.mean_bps_hz[0] + 3.0 * four.std_err[0]

    def test_unit_multiplexing_gain(self):
        from fbmimo.bounds import fit_multiplexing_gain
        cfg = SimConfig(M=4, K=4, snr_grid_db=tuple(range(0, 45, 5)), csit="perfect",
                        trials=2000, seed=13)
        slope = fit_multiplexing_gain(tdma_throughput(cfg))
        assert abs(slope - 1.0) < 0.15


class TestRandomBf:
    def test_needs_enough_users(self):
        with pytest.raises(ConfigError):
            random_bf_throughput(SimConfig(M=4, K=3, snr_grid_db=(10.0,), csit="perfect",
                                           trials=100))

    def test_single_antenna_reduces_to_scalar_channel(self):
        # one beam, one user: rate is log2(1 + P |h|^2) exactly
        p_db = 10.0
        cfg = SimConfig(M=1, K=1, snr_grid_db=(p_db,), csit="perfect", trials=6000, seed=17)
        curve = random_bf_throughput(cfg)
        want = _scalar_rate_oracle(10.0 ** (p_db / 10.0), 1)
        assert abs(curve.mean_bps_hz[0] - want) < 3.0 * curve.std_err[0]

    def test_reproducible(self):
        cfg = SimConfig(M=2, K=4, snr_grid_db=(10.0,), csit="perfect", trials=500, seed=17)
        a = random_bf_throughput(cfg)
        assert np.array_equal(a.mean_bps_hz, random_bf_throughput(cfg).mean_bps_hz)


class TestErrorBars:
    def test_three_sigma_coverage(self):
        # the reported std_err should cover the analytic mean ~99.7% of the time
        p_db, m, want = 10.0, 2, None
        want = m * _scalar_rate_oracle(10.0 ** (p_db / 10.0) / m, 1)
        hits = 0
        for seed in range(30):
            cfg = SimConfig(M=m, K=m, snr_grid_db=(p_db,), csit="perfect", trials=800, seed=seed)
            curve = mu_throughput(cfg)
            if abs(curve.mean_bps_hz[0] - want) <= 3.0 * curve.std_err[0]:
                hits += 1
        assert hits >= 27
