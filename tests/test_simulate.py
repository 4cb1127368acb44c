import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import integrate, stats

from fbmimo import numerics, shares
from fbmimo import simulate as sim
from fbmimo.bounds import (ScalingPolicy, miso_reference, random_bf_sum_rate,
                           unitary_sum_rate, zf_perfect_sum_rate)
from fbmimo.errors import CapacityError, ConfigError, DomainError, SingularMatrixError
from fbmimo.numerics import RngStream, haar_unitary, sample_complex_gaussian
from fbmimo.precoder import RZF, ZF, rzf_beamformers, zf_beamformers
from fbmimo.quantizer import (expected_error, generate_codebook, quantize,
                              sample_quantized_pair)
from fbmimo.simulate import (BRUTE_FORCE, FAST_DECOMPOSITION, SimConfig,
                             miso_feedback_throughput, mu_throughput, random_bf_throughput,
                             rate_gap, tdma_throughput, trial_streams)
from helpers import no_child_left

B4 = ScalingPolicy.fixed(4)


def _cfg(**kw):
    base = dict(M=2, K=2, snr_grid_db=(10.0,), policy=B4, path=FAST_DECOMPOSITION,
                trials=500, seed=7)
    base.update(kw)
    return SimConfig(**base)


def _quantized_rate(cfg, P):
    # an evaluate for the quantized-CSIT rate alone, without its controls
    return lambda H, h_hat, mag2, z: (sim._sum_rate(H, sim._beams(cfg, P, h_hat), P), ())


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
            _cfg(path="exhaustive")
        with pytest.raises(ConfigError):
            _cfg(snr_grid_db=())
        with pytest.raises(ConfigError):
            _cfg(snr_grid_db=(10.0, 5.0))

    def test_no_policy_runs_perfect_csit_and_the_feedback_engines_reject_it(self):
        cfg = _cfg(policy=None, trials=50)
        curve = mu_throughput(cfg)
        assert (curve.label, curve.policy) == ("zf_perfect", "perfect")
        assert np.isnan(curve.b_bits[0])
        with pytest.raises(ConfigError):
            rate_gap(cfg)
        with pytest.raises(ConfigError):
            miso_feedback_throughput(_cfg(K=1, policy=None))

    @pytest.mark.parametrize("grid", [(math.nan,), (0.0, math.inf), (-math.inf, 0.0),
                                      (0.0, 3083.0)])
    def test_rejects_grid_points_without_a_finite_power(self, grid):
        with pytest.raises(ConfigError, match="finite and at most"):
            _cfg(snr_grid_db=grid)
        assert _cfg(snr_grid_db=(-4000.0, sim.MAX_SNR_DB)).snr_grid_db[-1] == 3082.5
        assert math.isfinite(10.0 ** (sim.MAX_SNR_DB / 10.0))

    def test_grid_coerced_to_floats(self):
        cfg = _cfg(snr_grid_db=(0, 5, 10))
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0)


class TestTrialStreams:
    def test_deterministic(self):
        draw = lambda seed: sample_complex_gaussian(2, trial_streams(seed, 0, 300), size=3)
        a, b = draw(11), draw(11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, draw(12))

    def test_row_t_draws_from_stream_t(self):
        # a stacked draw equals each trial's draw alone, in any window of trials
        stacked = sample_complex_gaussian(4, trial_streams(3, 100, 400), size=2)
        want = [sample_complex_gaussian(4, RngStream(3, t).generator(), size=2)
                for t in range(100, 400)]
        assert np.array_equal(stacked, want)


class TestPrefixProperty:
    """Trial t's values do not depend on how many trials run, so a shorter
    run is a prefix of a longer one, across the block boundary too."""

    @pytest.mark.parametrize("path, M, B", [(FAST_DECOMPOSITION, 4, 10.0), (BRUTE_FORCE, 2, 3)])
    @pytest.mark.parametrize("singular", [False, True])
    def test_zf_statistics_prefix(self, path, M, B, singular, monkeypatch):
        assert 2048 > sim._BLOCK > 300
        if singular:  # as in TestStackedEnginesMatchOneTrialAtATime: nothing is redrawn
            monkeypatch.setattr(numerics, "_ill_conditioned",
                                lambda a, inv: np.abs(a[..., 0, 0]) < 0.3)
            for n_trials in (300, 2048):
                with pytest.raises(SingularMatrixError, match="^matrix is singular"):
                    sim.collect_zf_statistics(M, B, n_trials, seed=5, path=path)
            return
        short = sim.collect_zf_statistics(M, B, 300, seed=5, path=path)
        long = sim.collect_zf_statistics(M, B, 2048, seed=5, path=path)
        for key in ("signal", "interference", "error_z"):
            np.testing.assert_array_equal(short[key], long[key][:300])


class TestZfStatistics:
    @pytest.mark.parametrize("path, M, B", [(FAST_DECOMPOSITION, 4, 10.0), (BRUTE_FORCE, 3, 4)])
    def test_error_z_is_the_drawn_error(self, path, M, B):
        # user 1's Z as the engines' quantized draw gives it, not recomputed
        # from the directions
        out = sim.collect_zf_statistics(M, B, 60, seed=5, path=path)
        cfg = SimConfig(M=M, K=M, snr_grid_db=(0.0,), path=path)
        z = sim._quantized_draw(trial_streams(5, 0, 60), cfg, B)[3]
        assert set(out) == {"signal", "interference", "error_z"}
        np.testing.assert_array_equal(out["error_z"], z[:, 1])

    def test_brute_bits_round_up_to_a_whole_codebook(self):
        fractional = sim.collect_zf_statistics(3, 4.3, 40, seed=5, path=BRUTE_FORCE)
        whole = sim.collect_zf_statistics(3, 5, 40, seed=5, path=BRUTE_FORCE)
        for key in ("signal", "interference", "error_z"):
            np.testing.assert_array_equal(fractional[key], whole[key])

    def test_over_cap_brute_bits_raise_before_any_stream(self, monkeypatch):
        def no_stream(self):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(numerics.RngStream, "generator", no_stream)
        with pytest.raises(CapacityError):  # M * 2^23 = 2^25 entries
            sim.collect_zf_statistics(4, 22.5, 10, seed=5, path=BRUTE_FORCE)


class TestRealDrawsAreNotFlagged:
    """invert's singular rule, whose raise ends a run, does not fire on the
    ZF systems the engine builds: 2000 trials of quantized ZF run through,
    on the fast path and on the brute path's smallest codebooks, where
    directions coincide most, and their resamples column reads 0."""

    @pytest.mark.parametrize("path, B", [(FAST_DECOMPOSITION, 10), (BRUTE_FORCE, 0),
                                         (BRUTE_FORCE, 1), (BRUTE_FORCE, 2)])
    @pytest.mark.parametrize("M", range(2, 9))
    def test_no_resamples(self, M, path, B):
        cfg = SimConfig(M=M, K=M, snr_grid_db=(10.0,), policy=ScalingPolicy.fixed(B),
                        path=path, trials=2000, seed=M)
        assert mu_throughput(cfg).resamples.tolist() == [0]

    @pytest.mark.parametrize("M, path, B, n_trials", [
        (2, FAST_DECOMPOSITION, 10, 20_000), (4, FAST_DECOMPOSITION, 10, 20_000),
        (8, FAST_DECOMPOSITION, 10, 20_000), (4, BRUTE_FORCE, 2, 3_000)])
    def test_drawn_systems_stay_far_from_the_flag(self, M, path, B, n_trials):
        # the largest kappa_F of H and of h_hat stays below 1e6, six decades
        # under invert's 1e12 (the largest of the two was 281, 1.8e3, 4.5e3
        # and 554); it would not if quantized directions collided, say users
        # sharing one codebook
        cfg = SimConfig(M=M, K=M, snr_grid_db=(0.0,), path=path)

        def kappas(H, h_hat, mag2, z):
            return np.stack([np.linalg.norm(a, axis=(-2, -1))
                             * np.linalg.norm(np.linalg.inv(a), axis=(-2, -1))
                             for a in (H, h_hat)], axis=-1), ()

        worst = sim._trials(n_trials, 23, lambda gens: sim._quantized_draw(gens, cfg, B),
                            kappas)[0].max(axis=0)
        assert np.all(worst < 1e6), worst


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
        cfg = SimConfig(M=m, K=m, snr_grid_db=(p_db,), trials=trials, seed=5)
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
        perfect = mu_throughput(SimConfig(M=3, K=3, snr_grid_db=(10.0,), trials=300))
        assert np.isnan(perfect.b_bits[0])


class TestRateGap:
    def test_requires_quantized_square(self):
        with pytest.raises(ConfigError):
            rate_gap(_cfg(M=3, K=2, policy=B4))
        with pytest.raises(ConfigError):
            rate_gap(SimConfig(M=2, K=2, snr_grid_db=(10.0,), trials=100))

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
        perfect = mu_throughput(SimConfig(M=2, K=2, snr_grid_db=(10.0,), trials=3000,
                                          seed=cfg.seed + 1))
        unpaired = math.hypot(quant.std_err[0], perfect.std_err[0]) / cfg.M
        assert gap.std_err[0] < unpaired


class TestMisoEngine:
    def test_single_user_only(self):
        with pytest.raises(ConfigError):
            miso_feedback_throughput(_cfg(M=4, K=2, policy=B4))
        with pytest.raises(ConfigError):
            miso_feedback_throughput(SimConfig(M=4, K=1, snr_grid_db=(10.0,), trials=100))

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
        cfg = SimConfig(M=4, K=1, snr_grid_db=(p_db,), trials=6000, seed=13)
        curve = tdma_throughput(cfg)
        want = _scalar_rate_oracle(10.0 ** (p_db / 10.0), 4)
        assert abs(curve.mean_bps_hz[0] - want) < 3.0 * curve.std_err[0]

    def test_selection_gain(self):
        kw = dict(M=4, snr_grid_db=(10.0,), trials=4000, seed=13)
        one = tdma_throughput(SimConfig(K=1, **kw))
        four = tdma_throughput(SimConfig(K=4, **kw))
        assert four.mean_bps_hz[0] > one.mean_bps_hz[0] + 3.0 * four.std_err[0]

    def test_unit_multiplexing_gain(self):
        from fbmimo.bounds import fit_multiplexing_gain
        cfg = SimConfig(M=4, K=4, snr_grid_db=tuple(range(0, 45, 5)), trials=2000, seed=13)
        slope = fit_multiplexing_gain(tdma_throughput(cfg))
        assert abs(slope - 1.0) < 0.15


class TestRandomBf:
    def test_needs_enough_users(self):
        with pytest.raises(ConfigError):
            random_bf_throughput(SimConfig(M=4, K=3, snr_grid_db=(10.0,), trials=100))

    def test_single_antenna_reduces_to_scalar_channel(self):
        # one beam, one user: rate is log2(1 + P |h|^2) exactly
        p_db = 10.0
        cfg = SimConfig(M=1, K=1, snr_grid_db=(p_db,), trials=6000, seed=17)
        curve = random_bf_throughput(cfg)
        want = _scalar_rate_oracle(10.0 ** (p_db / 10.0), 1)
        assert abs(curve.mean_bps_hz[0] - want) < 3.0 * curve.std_err[0]

    def test_reproducible(self):
        cfg = SimConfig(M=2, K=4, snr_grid_db=(10.0,), trials=500, seed=17)
        a = random_bf_throughput(cfg)
        assert np.array_equal(a.mean_bps_hz, random_bf_throughput(cfg).mean_bps_hz)

    @pytest.mark.parametrize("M, K", [(8, 64), (8, 2000), (1, 3)])
    def test_plain_mean_without_a_trusted_control(self, M, K):
        # the closed form cancels too far at (8, 64) and (8, 2000); at M = 1
        # the rate is the control itself
        cfg = SimConfig(M=M, K=K, snr_grid_db=(0.0, 20.0), trials=20, seed=17)
        curve = random_bf_throughput(cfg)
        for j, snr_db in enumerate(cfg.snr_grid_db):
            P = 10.0 ** (snr_db / 10.0)
            rates, means = sim._trials(
                cfg.trials, cfg.seed, lambda gens: sim._random_bf_draw(gens, cfg, math.nan),
                lambda *arrays: sim._random_bf_rates(cfg, P, math.nan, *arrays))
            assert rates.ndim == 1 and means == ()  # no control is computed
            assert curve.mean_bps_hz[j] == rates.mean()
            assert curve.std_err[j] == rates.std(ddof=1) / math.sqrt(cfg.trials)
            assert M == 1 or random_bf_sum_rate(P, M, K) is None


class TestErrorBars:
    def test_three_sigma_coverage(self):
        # the reported std_err should cover the analytic mean ~99.7% of the time
        p_db, m, want = 10.0, 2, None
        want = m * _scalar_rate_oracle(10.0 ** (p_db / 10.0) / m, 1)
        hits = 0
        for seed in range(30):
            cfg = SimConfig(M=m, K=m, snr_grid_db=(p_db,), trials=800, seed=seed)
            curve = mu_throughput(cfg)
            if abs(curve.mean_bps_hz[0] - want) <= 3.0 * curve.std_err[0]:
                hits += 1
        assert hits >= 27


class TestControlVariate:
    """Every simulated point but perfect-CSIT ZF and TDMA is a regression
    estimate on control variates computed on each trial's own draw, with
    exact means.  Quantized CSIT uses the users' summed quantization
    errors S; where B > 0, the rate the quantized ZF beams would give if
    each channel lay along its quantized direction (the law of the
    perfect-CSIT ZF rate), or at B = 0 the rate on the unitary nearest the
    rate's own beams; D, the users' rates on their own channel gains at
    P/M; and under ZF R_zf, the perfect-CSIT ZF rate on the same H.  Rate
    gaps use the quantized arm's controls and, under ZF, the perfect arm;
    perfect-CSIT RZF uses R_zf and D; miso the perfect-CSIT beamforming
    rate; random beamforming the sum of every beam's best-user rate."""

    @staticmethod
    def _least_squares(rates, controls, control_means):
        # the intercept of rates on [1, controls - means], and its std_err
        n, k = len(rates), len(controls)
        design = np.column_stack([np.ones(n), *(c - m for c, m in zip(controls, control_means))])
        coef, residual_ss = np.linalg.lstsq(design, rates, rcond=None)[:2]
        return coef[0], math.sqrt(residual_ss[0] / (n - 1 - k) / n)

    def test_estimate_is_the_least_squares_intercept(self):
        gen = RngStream(23, 0).generator()
        control = gen.gamma(2.0, 1.0, size=50)
        rates = 0.7 * control + gen.standard_normal(50)
        got = sim._regression_estimate(rates, control[None], (2.0,))
        np.testing.assert_allclose(got, self._least_squares(rates, [control], (2.0,)),
                                   rtol=1e-12)

    def test_two_controls_are_the_least_squares_intercept(self):
        # bound fixed before the first run: 1e-12 relative
        gen = RngStream(23, 1).generator()
        controls = np.array([gen.gamma(2.0, 1.0, size=80), gen.standard_normal(80)])
        rates = 0.7 * controls[0] - 1.3 * controls[1] + 0.5 * gen.standard_normal(80)
        got = sim._regression_estimate(rates, controls, (2.0, 0.1))
        np.testing.assert_allclose(got, self._least_squares(rates, controls, (2.0, 0.1)),
                                   rtol=1e-12)
        # the estimate does not depend on a control's scale, even with the
        # columns 1e17 apart, where unscaled normal equations would be singular
        # to working precision
        scaled = controls * np.array([[1e-17], [1.0]])
        got = sim._regression_estimate(rates, scaled, (2e-17, 0.1))
        np.testing.assert_allclose(got, self._least_squares(rates, controls, (2.0, 0.1)),
                                   rtol=1e-12)

    def test_plain_estimate_below_three_trials_or_for_a_constant_control(self):
        rates = np.array([1.0, 2.0, 4.0])
        plain = (rates.mean(), rates.std(ddof=1) / math.sqrt(3))
        assert sim._regression_estimate(rates, np.full((1, 3), 5.0), (1.0,)) == plain
        assert sim._regression_estimate(rates[:2], rates[None, :2] ** 2, (9.0,)) == (
            1.5, rates[:2].std(ddof=1) / math.sqrt(2))
        assert sim._regression_estimate(rates[:1], rates[None, :1], (9.0,)) == (1.0, 0.0)
        assert sim._regression_estimate(rates, np.empty((0, 3)), ()) == plain  # no control

    def test_plain_estimate_below_k_plus_two_trials(self):
        # two varying controls need 4 trials, and constant ones do not count
        rates = np.array([1.0, 2.0, 4.0, 3.0])
        two = np.array([rates ** 2, np.sqrt(rates)])
        plain = (rates[:3].mean(), rates[:3].std(ddof=1) / math.sqrt(3))
        assert sim._regression_estimate(rates[:3], two[:, :3], (9.0, 1.0)) == plain
        assert sim._regression_estimate(rates, two, (9.0, 1.0)) != (
            rates.mean(), rates.std(ddof=1) / math.sqrt(4))
        constant = np.array([np.full(3, 2.0), np.full(3, 5.0)])
        assert sim._regression_estimate(rates[:3], constant, (9.0, 1.0)) == plain

    def test_a_constant_control_is_dropped(self):
        gen = RngStream(23, 2).generator()
        control = gen.gamma(2.0, 1.0, size=40)
        rates = 0.7 * control + gen.standard_normal(40)
        one = sim._regression_estimate(rates, control[None], (2.0,))
        with_constant = np.array([np.full(40, 3.0), control])
        np.testing.assert_allclose(sim._regression_estimate(rates, with_constant, (1.0, 2.0)),
                                   one, rtol=1e-12)

    def test_duplicated_controls_fit_on_their_rank(self):
        # a control given twice makes the normal equations singular: the fit
        # is then the one without the copy, on its degrees of freedom
        # (C1' and R_zf agree to working precision once sqrt(Z) < ~1e-10)
        gen = RngStream(23, 3).generator()
        controls = np.array([gen.gamma(2.0, 1.0, size=60), gen.standard_normal(60)])
        rates = 0.7 * controls[0] - 1.3 * controls[1] + 0.5 * gen.standard_normal(60)
        want = sim._regression_estimate(rates, controls, (2.0, 0.1))
        for duplicated, means in [(controls[[0, 1, 0]], (2.0, 0.1, 2.0)),
                                  (controls[[0, 1, 0, 1]], (2.0, 0.1, 2.0, 0.1))]:
            np.testing.assert_allclose(sim._regression_estimate(rates, duplicated, means), want,
                                       rtol=1e-12)

    @pytest.mark.parametrize("B, snr_db", [(180, 20.0), (300, 40.0)])
    def test_std_err_of_a_near_singular_fit_is_bounded_by_the_plain_one(self, B, snr_db):
        # R_perf, C1' and D nearly agree at large B, so the fit is
        # ill-conditioned but not singular.  A least-squares fit's residuals
        # never exceed the plain deviations, so its std_err is at most the
        # plain one times sqrt((n - 1) / (n - 1 - k)), k counting every control
        cfg = _cfg(M=4, K=4, snr_grid_db=(snr_db,), policy=ScalingPolicy.fixed(B), trials=50,
                   seed=42)
        P = 10.0 ** (snr_db / 10.0)
        values, means = sim._trials(cfg.trials, cfg.seed,
                                    lambda gens: sim._quantized_draw(gens, cfg, float(B)),
                                    lambda *arrays: sim._gap_rates(cfg, P, float(B), *arrays))
        n, k = cfg.trials, len(means)
        plain = values[:, 0].std(ddof=1) / math.sqrt(n)
        assert rate_gap(cfg).std_err[0] <= plain * math.sqrt((n - 1) / (n - 1 - k)) * (1 + 1e-9)

    def test_variance_cut_at_ten_db(self):
        # M=4, B=10, 10 dB: the control explains most of the variance
        cfg = _cfg(M=4, K=4, policy=ScalingPolicy.fixed(10), trials=3000)
        rates, _ = sim._trials(cfg.trials, cfg.seed,
                               lambda gens: sim._quantized_draw(gens, cfg, 10.0),
                               _quantized_rate(cfg, 10.0))
        plain_err = rates.std(ddof=1) / math.sqrt(cfg.trials)
        assert (plain_err / mu_throughput(cfg).std_err[0]) ** 2 > 1.5

    def test_brute_variance_cut_at_ten_db(self):
        # brute_codebook's point (M=4, B=10, 10 dB); bounds fixed before the
        # first run: more than 5x over the plain mean (7.55x measured with
        # seed 5, before D and R_zf), and D and R_zf more than 1.4x over
        # [S, C1'] alone
        cfg = _cfg(M=4, K=4, policy=ScalingPolicy.fixed(10), path=BRUTE_FORCE, trials=3000)
        values, means = self._quantized_columns(cfg, 10.0, 10.0)
        columns = np.ascontiguousarray(values.T)
        plain_err = columns[0].std(ddof=1) / math.sqrt(cfg.trials)
        err = mu_throughput(cfg).std_err[0]
        assert (plain_err / err) ** 2 > 5.0
        two_err = sim._regression_estimate(columns[0], columns[1:3], means[:2])[1]
        assert (two_err / err) ** 2 > 1.4

    @staticmethod
    def _quantized_columns(cfg, B, P):
        # the quantized evaluate's rows and its controls' exact means
        return sim._trials(cfg.trials, cfg.seed, lambda gens: sim._quantized_draw(gens, cfg, B),
                           lambda *arrays: sim._quantized_rates(cfg, P, B, *arrays))[:2]

    def _check_same_beam_mean(self, path, B, trials, precoder):
        # Bound fixed before the first run: the mean of the engine's
        # per-trial C1' is within 4 of its std_errs of the perfect-CSIT ZF
        # mean (two-sided normal tail 6e-5).
        cfg = _cfg(M=4, K=4, path=path, precoder=precoder, trials=trials)
        control = self._quantized_columns(cfg, B, 10.0)[0][:, 2]
        err = control.std(ddof=1) / math.sqrt(trials)
        assert abs(control.mean() - zf_perfect_sum_rate(10.0, cfg.M)) <= 4.0 * err

    @pytest.mark.parametrize("path, B, trials", [(FAST_DECOMPOSITION, 7.5, 4000),
                                                 (BRUTE_FORCE, 6.0, 2000)])
    def test_same_beam_control_has_the_closed_form_mean(self, path, B, trials):
        self._check_same_beam_mean(path, B, trials, ZF)

    @pytest.mark.parametrize("path, B, trials", [(FAST_DECOMPOSITION, 7.5, 4000),
                                                 (BRUTE_FORCE, 6.0, 2000)])
    def test_rzf_same_beam_control_has_the_closed_form_mean(self, path, B, trials):
        # RZF builds the ZF beams of h_hat for C1' alone
        self._check_same_beam_mean(path, B, trials, RZF)

    @pytest.mark.parametrize("path, B", [(FAST_DECOMPOSITION, 7.5), (BRUTE_FORCE, 6.0)])
    def test_same_beam_control_has_the_perfect_csit_law(self, path, B):
        # The ZF control should have exactly the law of the perfect-CSIT ZF
        # sum rate.  Bound fixed before the first run: a two-sample KS test
        # of the two on the same draws gives p > 0.01.  Equal laws fail it
        # with probability at most 0.01 for independent samples; the shared
        # draws correlate the two positively, which makes it rarer still.
        cfg = _cfg(M=4, K=4, path=path, trials=2000)

        def both(H, h_hat, mag2, z):
            return np.stack([sim._quantized_rates(cfg, 10.0, B, H, h_hat, mag2, z)[0][:, 2],
                             sim._mu_rates(cfg, 10.0, B, H)[0]], axis=-1), ()

        values, _ = sim._trials(cfg.trials, cfg.seed,
                                lambda gens: sim._quantized_draw(gens, cfg, B), both)
        assert stats.ks_2samp(values[:, 0], values[:, 1]).pvalue > 0.01

    @pytest.mark.parametrize("precoder", [ZF, RZF])
    @pytest.mark.parametrize("path", [FAST_DECOMPOSITION, BRUTE_FORCE])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_polar_control_has_the_closed_form_mean(self, path, precoder, snr_db):
        # Bound fixed before the first run: at B = 0 the mean of the rate on
        # the unitary nearest the rate's beams is within 4 of its std_errs
        # of bounds.unitary_sum_rate (two-sided normal tail 6e-5).
        cfg = _cfg(M=4, K=4, path=path, precoder=precoder, trials=2000)
        P = 10.0 ** (snr_db / 10.0)
        control = self._quantized_columns(cfg, 0.0, P)[0][:, 2]
        err = control.std(ddof=1) / math.sqrt(cfg.trials)
        assert abs(control.mean() - unitary_sum_rate(P, cfg.M)) <= 4.0 * err

    def test_rzf_variance_cut_at_zero_bits(self):
        # M=4, B=0, 0 dB: a one-word codebook leaves Z ~ Beta(3, 1), which
        # drives most of the rate's variance
        cfg = _cfg(M=4, K=4, snr_grid_db=(0.0,), policy=ScalingPolicy.fixed(0), precoder=RZF,
                   trials=3000)
        rates, _ = sim._trials(cfg.trials, cfg.seed,
                               lambda gens: sim._quantized_draw(gens, cfg, 0.0),
                               _quantized_rate(cfg, 1.0))
        plain_err = rates.std(ddof=1) / math.sqrt(cfg.trials)
        assert (plain_err / mu_throughput(cfg).std_err[0]) ** 2 > 2.0

    def _check_error_sum_mean(self, M, path, B, trials):
        # Bound fixed before the first run: the mean of the engine's
        # per-trial S is within 4 of its std_errs of K E[Z] (two-sided
        # normal tail 6e-5).
        cfg = _cfg(M=M, K=M, precoder=RZF, path=path, trials=trials)
        control = self._quantized_columns(cfg, B, 10.0)[0][:, 1]
        err = control.std(ddof=1) / math.sqrt(trials)
        assert abs(control.mean() - cfg.K * expected_error(cfg.M, B)) <= 4.0 * err

    @pytest.mark.parametrize("path, B, trials", [(FAST_DECOMPOSITION, 2.5, 4000),
                                                 (BRUTE_FORCE, 3.0, 2000)])
    def test_error_sum_has_the_closed_form_mean(self, path, B, trials):
        self._check_error_sum_mean(4, path, B, trials)

    def test_error_sum_is_the_drawn_error_at_large_bits(self):
        # At M = 2, B = 60, E[Z] = 1/(2^60 + 1) ~ 8.7e-19, far below the
        # rounding of 1 - |h_dir^H h_hat|^2 (a mean of ~1.8e-16 per pair of
        # users), so S must sum the Z that was drawn.
        self._check_error_sum_mean(2, FAST_DECOMPOSITION, 60.0, 2000)

    def test_random_bf_variance_cut(self):
        # compare88's random_bf point at 10 dB (M = K = 8); bound fixed
        # before the first run: more than 2x
        cfg = SimConfig(M=8, K=8, snr_grid_db=(10.0,), trials=3000, seed=7)
        values, _ = sim._trials(
            cfg.trials, cfg.seed, lambda gens: sim._random_bf_draw(gens, cfg, math.nan),
            lambda *arrays: sim._random_bf_rates(cfg, 10.0, math.nan, *arrays))
        plain_err = values[:, 0].std(ddof=1) / math.sqrt(cfg.trials)
        assert (plain_err / random_bf_throughput(cfg).std_err[0]) ** 2 > 2.0

    @pytest.mark.parametrize("M, K, snr_db", [(8, 8, 0.0), (8, 8, 20.0), (4, 10, 10.0),
                                              (2, 2, -10.0)])
    def test_best_beam_sum_has_the_closed_form_mean(self, M, K, snr_db):
        # Bound fixed before the first run: the mean of the engine's
        # per-trial control R is within 4 of its std_errs of
        # random_bf_sum_rate (two-sided normal tail 6e-5).
        cfg = SimConfig(M=M, K=K, snr_grid_db=(snr_db,), trials=3000, seed=29)
        P = 10.0 ** (snr_db / 10.0)
        values, _ = sim._trials(
            cfg.trials, cfg.seed, lambda gens: sim._random_bf_draw(gens, cfg, math.nan),
            lambda *arrays: sim._random_bf_rates(cfg, P, math.nan, *arrays))
        control = values[:, 1]
        err = control.std(ddof=1) / math.sqrt(cfg.trials)
        assert abs(control.mean() - random_bf_sum_rate(P, M, K)) <= 4.0 * err

    @pytest.mark.parametrize("engine, overrides", [
        ("mu", dict(snr_grid_db=(10.0,), policy=ScalingPolicy.fixed(10))),
        ("mu", dict(snr_grid_db=(0.0,), policy=ScalingPolicy.fixed(0), precoder=RZF)),
        ("mu", dict(snr_grid_db=(10.0,), policy=ScalingPolicy.fixed(10), precoder=RZF)),
        ("mu", dict(snr_grid_db=(0.0,), policy=ScalingPolicy.fixed(0))),
        ("random_bf", dict(snr_grid_db=(10.0,), policy=None)),
        ("gap", dict(snr_grid_db=(10.0,), policy=ScalingPolicy.fixed(8))),
        ("gap", dict(snr_grid_db=(10.0,), policy=ScalingPolicy.fixed(8), precoder=RZF)),
        ("mu", dict(snr_grid_db=(10.0,), policy=None, precoder=RZF)),
        ("miso", dict(K=1, snr_grid_db=(10.0,), policy=ScalingPolicy.fixed(4))),
        # mux4x4's alpha = 3.9 curve at 40 dB, B = 51.8: the rate and its
        # four controls are nearly collinear there
        ("mu", dict(snr_grid_db=(40.0,), policy=ScalingPolicy.alpha_scaled(3.9)))],
        ids=["zf", "rzf", "rzf_b10", "zf_b0", "random_bf", "zf_gap", "rzf_gap", "rzf_perfect",
             "miso", "zf_alpha3.9_40db"])
    def test_std_err_coverage(self, engine, overrides):
        # [S, C1', D, R_zf] on ZF and [S, C1', D] on RZF at B = 10, the
        # same with the polar rate at B = 0, random beamforming's one
        # control, the gaps' [R_perf, S, C1', D] (R_perf under ZF only),
        # rzf_perfect's [R_zf, D] and miso's log2(1 + P ||h||^2).  Bounds
        # fixed before the first run: the estimate's distance to a long
        # plain-MC reference, over the hypot of both std_errs, is about
        # t(299 - k); 60 seeds cover within 3 sigma with p = 0.9971 and
        # within 1 sigma with p = 0.682, so P(3-sigma hits < 57) = 3e-5 and
        # P(1-sigma hits outside 30..52) = 1.4e-3.
        cfg = _cfg(**{**dict(M=4, K=4, trials=300), **overrides})
        (snr_db,) = cfg.snr_grid_db
        P, B = 10.0 ** (snr_db / 10.0), sim._resolve_bits(cfg, snr_db)
        engine, draw, evaluate = {
            "random_bf": (random_bf_throughput, sim._random_bf_draw, sim._random_bf_rates),
            "gap": (rate_gap, sim._quantized_draw, sim._gap_rates),
            "miso": (miso_feedback_throughput, sim._quantized_draw, sim._miso_rates),
            "mu": (mu_throughput, *((sim._perfect_draw, sim._mu_rates) if cfg.policy is None
                                    else (sim._quantized_draw, sim._quantized_rates))),
        }[engine]
        # At the large-B point the controls cut the variance ~4,500x, so a
        # plain reference would be less precise than the estimates it
        # checks.  There the reference is the plain mean of rate - C1' (a
        # fixed coefficient, ~2,300x) plus C1''s exact mean.
        differenced = B > 30.0

        def rates(*arrays):
            rows = evaluate(cfg, P, B, *arrays)[0]
            return rows[:, 0] - rows[:, 2] if differenced else rows[:, 0], ()

        ref_trials = 60_000
        reference, _ = sim._trials(ref_trials, 10_000, lambda gens: draw(gens, cfg, B),
                                   rates)
        want = reference.mean() + (zf_perfect_sum_rate(P, cfg.M) if differenced else 0.0)
        want_err = reference.std(ddof=1) / math.sqrt(ref_trials)
        within = []
        for seed in range(60):
            curve = engine(dataclasses.replace(cfg, seed=seed))
            within.append(abs(curve.mean_bps_hz[0] - want) / math.hypot(curve.std_err[0], want_err))
        within = np.array(within)
        assert np.sum(within <= 3.0) >= 57
        assert 30 <= np.sum(within <= 1.0) <= 52


# --- Oracle: the stacked engines against one trial at a time -----------------
# The scalar trials below are the per-trial formulas the engines evaluated
# before they worked on stacks: each draws from its own RngStream(seed, t)
# generator.

def _one_quantized(gen, M, K, B, path):
    # H, h_hat, each user's ||h||^2 and error Z
    if path == BRUTE_FORCE:
        H = sample_complex_gaussian(M, gen, size=K)
        h_hat = np.empty((K, M), dtype=complex)
        z = np.empty(K)
        for i in range(K):
            h_hat[i], z[i] = quantize(H[i], generate_codebook(M, B, gen))
        return H, h_hat, np.array([np.vdot(H[i], H[i]).real for i in range(K)]), z
    h_dir, h_hat, z = sample_quantized_pair(M, B, gen, size=K)
    mag2 = gen.gamma(M, 1.0, size=K)
    return np.sqrt(mag2)[:, None] * h_dir, h_hat, mag2, z


def _one_beams(G, precoder, P):
    return zf_beamformers(G) if precoder == ZF else rzf_beamformers(G, P)


def _one_sum_rate(H, vectors, P):
    gains = np.abs(H.conj() @ vectors) ** 2
    per_stream = P / vectors.shape[1]
    signal = per_stream * np.diagonal(gains)
    interference = per_stream * (gains.sum(axis=1) - np.diagonal(gains))
    return float(np.log2(1.0 + signal / (1.0 + interference)).sum())


def _one_zf_rate(H, P):
    # R_zf: the perfect-CSIT ZF rate on H
    return _one_sum_rate(H, zf_beamformers(H.conj()), P)


def _one_gain_rate(mag2, cfg, P):
    # D = sum_i log2(1 + (P/M) ||h_i||^2)
    return float(np.log2(1.0 + P / cfg.M * mag2).sum())


def _one_mu(gen, cfg, P, B):
    # the rate; perfect-CSIT RZF also gives its controls R_zf and D
    if cfg.policy is None:
        H = sample_complex_gaussian(cfg.M, gen, size=cfg.K)
        rate = _one_sum_rate(H, _one_beams(H.conj(), cfg.precoder, P), P)
        if cfg.precoder == ZF:
            return rate
        mag2 = np.array([np.vdot(H[i], H[i]).real for i in range(cfg.K)])
        return rate, _one_zf_rate(H, P), _one_gain_rate(mag2, cfg, P)
    H, h_hat = _one_quantized(gen, cfg.M, cfg.K, B, cfg.path)[:2]
    return _one_sum_rate(H, _one_beams(h_hat.conj(), cfg.precoder, P), P)


def _one_quantized_arm(gen, cfg, P, B):
    # H, then quantized CSIT's rate, the users' summed errors S, where B > 0
    # the control sum_i log2(1 + (P/M) ||h_i||^2 |h_hat_i^H v_i|^2) on the
    # ZF beams v_i of h_hat, at B = 0 the rate on the polar factor U V^H of
    # the rate's beams, and D
    H, h_hat, mag2, z = _one_quantized(gen, cfg.M, cfg.K, B, cfg.path)
    beams = _one_beams(h_hat.conj(), cfg.precoder, P)
    if B > 0:
        zf = zf_beamformers(h_hat.conj())
        gain = np.array([np.vdot(h_hat[i], zf[:, i]) for i in range(cfg.K)])
        second = float(np.log2(1.0 + P / cfg.M * mag2 * (gain.real * gain.real
                                                          + gain.imag * gain.imag)).sum())
    else:
        u, _, vh = np.linalg.svd(beams)
        second = _one_sum_rate(H, u @ vh, P)
    return H, _one_sum_rate(H, beams, P), float(z.sum()), second, _one_gain_rate(mag2, cfg, P)


def _one_quantized_and_controls(gen, cfg, P, B):
    # the quantized arm's rate and controls, and under ZF R_zf
    H, *rates = _one_quantized_arm(gen, cfg, P, B)
    return (*rates, _one_zf_rate(H, P)) if cfg.precoder == ZF else tuple(rates)


def _one_gap(gen, cfg, P, B):
    # the per-user gap, under ZF the perfect arm, and the quantized arm's
    # controls; the RZF perfect arm has no exact mean and is no control
    H, rate, *controls = _one_quantized_arm(gen, cfg, P, B)
    perfect = _one_sum_rate(H, _one_beams(H.conj(), cfg.precoder, P), P)
    return ((perfect - rate) / cfg.M, *((perfect,) if cfg.precoder == ZF else ()), *controls)


def _log2_one(x: float) -> float:
    # np.log2 of a one-element array: the kernel the engines run on a stack
    return float(np.log2(np.array([x]))[0])


def _one_miso(gen, cfg, P, B):
    # the rate on the quantized direction, and the control log2(1 + P ||h||^2)
    if cfg.path == BRUTE_FORCE:
        h = sample_complex_gaussian(cfg.M, gen)
        _, z = quantize(h, generate_codebook(cfg.M, B, gen))
        mag2 = float(np.real(np.vdot(h, h)))
    else:
        z = sample_quantized_pair(cfg.M, B, gen, size=1)[2][0]
        mag2 = float(gen.gamma(cfg.M, 1.0))
    return _log2_one(1.0 + P * mag2 * (1.0 - z)), _log2_one(1.0 + P * mag2)


def _one_tdma(gen, cfg, P, B):
    H = sample_complex_gaussian(cfg.M, gen, size=cfg.K)
    return _log2_one(1.0 + P * float(np.max(np.sum(np.abs(H) ** 2, axis=1))))


def _one_random_bf(gen, cfg, P, B):
    H = sample_complex_gaussian(cfg.M, gen, size=cfg.K)
    gains = np.abs(H.conj() @ haar_unitary(cfg.M, gen)) ** 2
    per_stream = P / cfg.M
    sinr_table = per_stream * gains / (
        1.0 + per_stream * (gains.sum(axis=1, keepdims=True) - gains))
    best_beam = np.argmax(sinr_table, axis=1)
    best_val = sinr_table[np.arange(cfg.K), best_beam]
    # each beam's rate on its highest claim, 0 for an unclaimed beam
    rates = np.zeros(cfg.M)
    for m in range(cfg.M):
        claim = best_val[best_beam == m]
        if claim.size:
            rates[m] = _log2_one(1.0 + float(claim.max()))
    # the control: every beam serves its best user, claimed or not
    return float(rates.sum()), float(np.log2(1.0 + sinr_table.max(axis=0)).sum())


def _quantized_arm_means(cfg, P, B):
    # S, C1' or the polar rate, and D, whose mean is miso's no-CSIT rate per user
    return (cfg.K * expected_error(cfg.M, B),
            zf_perfect_sum_rate(P, cfg.M) if B > 0 else unitary_sum_rate(P, cfg.M),
            cfg.K * miso_reference(P, cfg.M, 0.0).c_nocsit)


# the exact means of each oracle's control variates
_CONTROL_MEANS = {
    _one_mu: lambda cfg, P, B: (zf_perfect_sum_rate(P, cfg.M),
                                cfg.K * miso_reference(P, cfg.M, 0.0).c_nocsit),
    _one_quantized_and_controls: lambda cfg, P, B: (
        *_quantized_arm_means(cfg, P, B),
        *((zf_perfect_sum_rate(P, cfg.M),) if cfg.precoder == ZF else ())),
    _one_gap: lambda cfg, P, B: (*((zf_perfect_sum_rate(P, cfg.M),) if cfg.precoder == ZF
                                   else ()), *_quantized_arm_means(cfg, P, B)),
    _one_miso: lambda cfg, P, B: (miso_reference(P, cfg.M, B).c_csit,),
    _one_random_bf: lambda cfg, P, B: (random_bf_sum_rate(P, cfg.M, cfg.K),),
}


def _one_at_a_time(one, cfg, P, B):
    return np.array([one(RngStream(cfg.seed, t).generator(), cfg, P, B)
                     for t in range(cfg.trials)])


# Both give B = 0 at 0 dB.  At 15 dB exact scaling gives a real-valued B on
# the fast path, and alpha scaling 3.99 bits, which the brute path rounds up
# to 4.
_SCALED_BITS = ScalingPolicy.exact_scaled(2.0)
_BRUTE_BITS = ScalingPolicy.alpha_scaled(0.8)
_ORACLE_CASES = {
    "zf_perfect": (sim.mu_throughput, _one_mu, sim._perfect_draw, sim._mu_rates,
                   dict(policy=None)),
    "rzf_perfect": (sim.mu_throughput, _one_mu, sim._perfect_draw, sim._mu_rates,
                    dict(policy=None, precoder=RZF)),
    "zf_fast": (sim.mu_throughput, _one_quantized_and_controls, sim._quantized_draw,
                sim._quantized_rates, dict(policy=_SCALED_BITS)),
    "rzf_fast": (sim.mu_throughput, _one_quantized_and_controls, sim._quantized_draw,
                 sim._quantized_rates, dict(policy=_SCALED_BITS, precoder=RZF)),
    "zf_brute": (sim.mu_throughput, _one_quantized_and_controls, sim._quantized_draw,
                 sim._quantized_rates, dict(policy=_BRUTE_BITS, path=BRUTE_FORCE)),
    "rzf_brute": (sim.mu_throughput, _one_quantized_and_controls, sim._quantized_draw,
                  sim._quantized_rates, dict(policy=_BRUTE_BITS, path=BRUTE_FORCE,
                                             precoder=RZF)),
    "rate_gap": (sim.rate_gap, _one_gap, sim._quantized_draw, sim._gap_rates,
                 dict(policy=_SCALED_BITS)),
    "rate_gap_rzf": (sim.rate_gap, _one_gap, sim._quantized_draw, sim._gap_rates,
                     dict(policy=_SCALED_BITS, precoder=RZF)),
    "rate_gap_brute": (sim.rate_gap, _one_gap, sim._quantized_draw, sim._gap_rates,
                       dict(policy=_BRUTE_BITS, path=BRUTE_FORCE)),
    "miso_fast": (sim.miso_feedback_throughput, _one_miso, sim._quantized_draw,
                  sim._miso_rates, dict(K=1, policy=_SCALED_BITS)),
    "miso_brute": (sim.miso_feedback_throughput, _one_miso, sim._quantized_draw,
                   sim._miso_rates,
                   dict(K=1, path=BRUTE_FORCE)),
    "tdma": (sim.tdma_throughput, _one_tdma, sim._perfect_draw, sim._tdma_rates,
             dict(K=5, policy=None)),
    # eight beams: numpy sums eight or more terms pairwise, not in order
    "random_bf": (sim.random_bf_throughput, _one_random_bf, sim._random_bf_draw,
                  sim._random_bf_rates, dict(M=8, K=9, policy=None)),
}


class TestStackedEnginesMatchOneTrialAtATime:
    def _check(self, case, monkeypatch, block, **overrides):
        engine, one, draw, evaluate, kw = _ORACLE_CASES[case]
        monkeypatch.setattr(sim, "_BLOCK", block)
        cfg = SimConfig(**{**dict(M=3, K=3, snr_grid_db=(0.0, 15.0), policy=B4, trials=45,
                                  seed=19), **kw, **overrides})
        curve = engine(cfg)
        for j, snr_db in enumerate(cfg.snr_grid_db):
            P = 10.0 ** (snr_db / 10.0)
            B = sim._resolve_bits(cfg, snr_db)
            want = _one_at_a_time(one, cfg, P, B)
            got, means = sim._trials(cfg.trials, cfg.seed, lambda gens: draw(gens, cfg, B),
                                     lambda *arrays: evaluate(cfg, P, B, *arrays))
            np.testing.assert_array_equal(got, want)
            if want.ndim == 2:  # rates and their control variates
                # one exact mean per control, bit for bit the oracle's
                assert len(means) == want.shape[1] - 1
                assert means == _CONTROL_MEANS[one](cfg, P, B)
                columns = np.ascontiguousarray(want.T)
                mean, err = sim._regression_estimate(columns[0], columns[1:], means)
            else:
                assert means == ()
                mean, err = want.mean(), want.std(ddof=1) / math.sqrt(cfg.trials)
            assert curve.mean_bps_hz[j] == mean
            assert curve.std_err[j] == err
        return curve, cfg

    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_rates_equal(self, case, monkeypatch):
        self._check(case, monkeypatch, block=16)  # 45 trials: blocks of 16, 16 and 13

    @pytest.mark.parametrize("case", ["zf_perfect", "rzf_perfect", "zf_fast", "zf_brute",
                                      "rzf_fast", "rzf_brute", "rate_gap", "rate_gap_rzf",
                                      "rate_gap_brute"])
    def test_forced_singular_matrices(self, case, monkeypatch):
        # flag every matrix whose top-left entry is small, a deterministic
        # subset: the engine raises at the first point where one trial's
        # build is flagged, naming the curve and the point, and matches the
        # oracle before it.  RZF inverts nothing at B = 0, so its first
        # point, at 0 dB, runs; at B > 0 C1' builds ZF beams of h_hat.
        monkeypatch.setattr(numerics, "_ill_conditioned", lambda a, inv: np.abs(a[..., 0, 0]) < 0.3)
        engine, one, _, _, kw = _ORACLE_CASES[case]
        cfg = SimConfig(**{**dict(M=3, K=3, snr_grid_db=(0.0, 15.0), policy=B4, trials=45,
                                  seed=19), **kw})
        first = 15.0 if cfg.precoder == RZF and cfg.policy is not None else 0.0
        for snr_db in cfg.snr_grid_db:
            P, B = 10.0 ** (snr_db / 10.0), sim._resolve_bits(cfg, snr_db)
            if snr_db < first:
                _one_at_a_time(one, cfg, P, B)
            else:
                with pytest.raises(SingularMatrixError):
                    _one_at_a_time(one, cfg, P, B)
        with pytest.raises(SingularMatrixError, match=(
                rf"^forced at SNR {first} dB: matrix is singular to working precision$")):
            engine(cfg, label="forced")
        if first > 0.0:
            self._check(case, monkeypatch, block=16, snr_grid_db=(0.0,))


class TestWorkerCount:
    def test_size_gate_cpus_and_memory_budget(self):
        assert sim._workers(4, 8, 2) == 1  # below the size gate
        assert sim._workers(4, 9, 2) == 2
        assert sim._workers(4, 10, 2) == 2
        assert sim._workers(6, 12, 7) == 7
        assert sim._workers(4, 17, 8) == 2  # 2 x 2^19 entries fill the budget
        assert sim._workers(4, 18, 8) == 1
        assert sim._workers(4, 30, 8) == 1

    @pytest.mark.parametrize("n_trials, workers, runs", [(5, 7, [5]), (1, 2, [1]),
                                                         (1030, 3, [3, 3])])
    def test_no_more_runs_than_a_stack_has_trials(self, n_trials, workers, runs, monkeypatch):
        def rows(workers):
            return sim._trials(n_trials, 3, lambda gens: (np.array([g.random() for g in gens]),),
                               lambda u: (u, ()), workers)[0]

        want, used, run_in_shares = rows(1), [], shares.run_in_shares

        def spy(work, parts):
            used.append(len(parts))
            return run_in_shares(work, parts)

        monkeypatch.setattr(shares, "run_in_shares", spy)
        np.testing.assert_array_equal(rows(workers), want)
        assert used == runs and no_child_left()


_BRUTE_CASES = {
    "zf_brute": (sim.mu_throughput, dict(path=BRUTE_FORCE)),
    "rzf_brute": (sim.mu_throughput, dict(path=BRUTE_FORCE, precoder=RZF)),
    "miso_brute": (sim.miso_feedback_throughput, dict(K=1, path=BRUTE_FORCE)),
}


class TestWorkerCountInvariance:
    """The brute path gives the serial run's arrays whatever the share count.

    37 trials in blocks of 16, 16 and 5, so 7 runs are also capped at the
    5 trials of the last block.  The size gate is lowered so that these small
    codebooks are searched in runs.
    """

    @pytest.fixture
    def workers_used(self, monkeypatch):
        """(trials, runs) of each stack, and the forks made."""
        monkeypatch.setattr(sim, "_BLOCK", 16)
        monkeypatch.setattr(sim, "_SHARE_MIN_ENTRIES", 0)
        used, forks = [], []
        run_in_shares, fork = shares.run_in_shares, os.fork

        def spy(work, parts):
            runs = run_in_shares(work, parts)
            used.append((sum(len(rows) for rows, _ in runs), len(parts)))
            return runs

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(shares, "run_in_shares", spy)
        monkeypatch.setattr(os, "fork", counted_fork)
        yield used, forks
        assert no_child_left()

    def _at(self, monkeypatch, cpus, run):
        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        return run()

    # ZF, and RZF's C1' at B > 0, invert h_hat, so they meet the
    # forced-singular flags; miso inverts nothing
    @pytest.mark.parametrize("case, singular", [
        ("zf_brute", False), ("rzf_brute", False), ("miso_brute", False), ("zf_brute", True),
        ("rzf_brute", True)])
    @pytest.mark.parametrize("cpus", [2, 3, 7])
    def test_curves_equal_serial(self, case, cpus, singular, monkeypatch, workers_used):
        engine, kw = _BRUTE_CASES[case]
        cfg = SimConfig(**{**dict(M=3, K=3, snr_grid_db=(0.0, 15.0), policy=B4, trials=37,
                                  seed=19), **kw})
        used, forks = workers_used
        if singular:  # as in TestStackedEnginesMatchOneTrialAtATime
            monkeypatch.setattr(numerics, "_ill_conditioned",
                                lambda a, inv: np.abs(a[..., 0, 0]) < 0.3)
            label = {"zf_brute": "zf_quantized", "rzf_brute": "rzf_quantized"}[case]
            want = f"^{label} at SNR 0.0 dB: matrix is singular to working precision$"
            for count in (1, cpus):
                with pytest.raises(SingularMatrixError, match=want):
                    self._at(monkeypatch, count, lambda: engine(cfg))
            # the first stack raises, on the calling process and in its forked runs alike
            assert not used and len(forks) == cpus - 1
            return
        want = self._at(monkeypatch, 1, lambda: engine(cfg))
        assert {w for _, w in used} == {1} and not forks
        used.clear()
        got = self._at(monkeypatch, cpus, lambda: engine(cfg))
        np.testing.assert_array_equal(got.mean_bps_hz, want.mean_bps_hz)
        np.testing.assert_array_equal(got.std_err, want.std_err)
        # each stack splits once per point
        assert used == [(16, cpus), (16, cpus), (5, min(cpus, 5))] * 2
        assert len(forks) == sum(w - 1 for _, w in used)

    @pytest.mark.parametrize("cpus", [2, 3, 7])
    def test_zf_statistics_equal_serial(self, cpus, monkeypatch, workers_used):
        def run():
            return sim.collect_zf_statistics(3, 4, 37, seed=19, path=BRUTE_FORCE)

        used, forks = workers_used
        want = self._at(monkeypatch, 1, run)
        used.clear()
        got = self._at(monkeypatch, cpus, run)
        for key in ("signal", "interference", "error_z"):
            np.testing.assert_array_equal(got[key], want[key])
        assert used == [(16, cpus), (16, cpus), (5, min(cpus, 5))]
        assert len(forks) == sum(w - 1 for _, w in used)


class TestThreadedFailures:
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(sim, "_SHARE_MIN_ENTRIES", 0)
        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        quantize, parent = sim.quantize, os.getpid()

        def fails_off_the_calling_process(h, codebook):
            if os.getpid() != parent:
                raise DomainError("worker trial")
            return quantize(h, codebook)

        monkeypatch.setattr(sim, "quantize", fails_off_the_calling_process)
        with pytest.raises(DomainError, match="^worker trial$"):
            sim.mu_throughput(_cfg(path=BRUTE_FORCE, trials=16))
        assert no_child_left()
