"""End-to-end acceptance checks.

Each test exercises one headline behavior of the package at full Monte
Carlo scale and prints a single ACCEPTANCE pass/fail line (bypassing
pytest capture) so a test-log scan shows every verdict at a glance.
Tolerances are fixed a priori; seeds are pinned so reruns are exact.
"""

import math

import numpy as np
from scipy import stats

from fbmimo.bounds import (ScalingPolicy, ThroughputCurve, ceiling_fixed_B, feedback_bits,
                           fit_multiplexing_gain, horizontal_offset_db, miso_reference,
                           rate_gap_bound, rvq_bit_penalty, zf_dpc_power_offset_db)
from fbmimo.numerics import RngStream
from fbmimo.quantizer import error_ccdf, expected_error, sample_error
from fbmimo.simulate import (BRUTE_FORCE, FAST_DECOMPOSITION, SimConfig, _cpus,
                             _quantized_draw, _trials, _workers, collect_zf_statistics,
                             miso_feedback_throughput, mu_throughput, random_bf_throughput,
                             rate_gap, tdma_throughput)


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _analytic_curve(label, grid, M, values):
    grid = np.asarray(grid, dtype=float)
    return ThroughputCurve(label=label, snr_db=grid, mean_bps_hz=np.asarray(values, float),
                           std_err=np.zeros(len(grid)), trials=np.zeros(len(grid), dtype=int),
                           M=M, K=1, policy="analytic", precoder="BF", seed=0)


def _brute_errors(m: int, b: int, n: int, seed: int) -> np.ndarray:
    """Errors Z of trials 0..n-1 of the engine's brute-force draw for one user."""
    cfg = SimConfig(M=m, K=1, snr_grid_db=(0.0,), policy=ScalingPolicy.fixed(b), path=BRUTE_FORCE)
    return _trials(n, seed, lambda gens: _quantized_draw(gens, cfg, b),
                   lambda H, h_hat, mag2, z: (z[:, 0], ()), _workers(m, b, _cpus()))[0]


def test_01_quantizer_error_mean(capsys):
    """The engine's codebook search reproduces the closed-form mean error."""
    parts = []
    ok = True
    for m, b in [(2, 2), (3, 6), (4, 8), (5, 10)]:
        samples = _brute_errors(m, b, 100_000, 101)
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        want = expected_error(m, b)
        ok &= abs(mean - want) < 3.0 * se
        parts.append(f"M={m},B={b}: {mean:.5f} vs {want:.5f} (se {se:.1e})")
    for b in range(0, 12):
        ok &= math.isclose(expected_error(2, b), 1.0 / (2 ** b + 1), rel_tol=1e-10)
    parts.append("M=2 closed form exact")
    _report(capsys, "quantizer_error_mean", ok, "; ".join(parts))


def test_02_error_distribution(capsys):
    """The engine's brute-force errors follow the min-of-betas law (KS at 1%)."""
    m, b, n = 3, 4, 100_000
    samples = _brute_errors(m, b, n, 102)
    cdf = lambda z: 1.0 - error_ccdf(z, m, b)
    stat, p = stats.kstest(samples, cdf)
    _report(capsys, "error_distribution", p > 0.01,
            f"M={m} B={b} n={n}: KS stat {stat:.5f}, p={p:.3f} > 0.01")


def test_03_interference_law(capsys):
    """Cross gains from the full pipeline match error-times-beta sampling."""
    m, b, n = 4, 6, 10_000
    pipeline = collect_zf_statistics(m, b, n, seed=103, path=BRUTE_FORCE)["interference"]
    rng = RngStream(103, 1).generator()
    product = sample_error(m, b, rng, size=n) * rng.beta(1.0, m - 2.0, size=n)
    stat, p = stats.ks_2samp(pipeline, product)
    _report(capsys, "interference_law", p > 0.01,
            f"M={m} B={b} n={n} each: KS stat {stat:.5f}, p={p:.3f} > 0.01")


def test_04_miso_gaps(capsys):
    """Single-user feedback curve sits ~2.7 dB right of perfect CSIT; the
    no-CSIT reference sits 10*log10(M) ~ 6.02 dB right."""
    m, b = 4, 3
    grid = tuple(float(s) for s in range(0, 35, 5))
    refs = [miso_reference(10.0 ** (s / 10.0), m, b) for s in grid]
    csit = _analytic_curve("csit", grid, m, [r.c_csit for r in refs])
    nocsit = _analytic_curve("nocsit", grid, m, [r.c_nocsit for r in refs])
    cfg = SimConfig(M=m, K=1, snr_grid_db=grid, policy=ScalingPolicy.fixed(b),
                    path=BRUTE_FORCE, trials=20_000, seed=42)
    fb = miso_feedback_throughput(cfg)
    gap_fb = horizontal_offset_db(csit, fb, 15.0, 25.0)
    gap_nocsit = horizontal_offset_db(csit, nocsit, 15.0, 25.0)
    ok = abs(gap_fb - 2.7) <= 0.3 and abs(gap_nocsit - 6.02) <= 0.1
    _report(capsys, "miso_gaps", ok,
            f"feedback gap {gap_fb:.2f} dB in 2.7+-0.3; no-CSIT gap {gap_nocsit:.2f} in 6.02+-0.1")


def test_05_fixed_bits_saturation(capsys):
    """Fixed feedback bits cap the sum throughput below the analytic ceiling."""
    cfg = SimConfig(M=5, K=5, snr_grid_db=(40.0, 50.0), policy=ScalingPolicy.fixed(10),
                    path=BRUTE_FORCE, trials=4_000, seed=42)
    curve = mu_throughput(cfg)
    r40, r50 = curve.mean_bps_hz
    _, exact = ceiling_fixed_B(5, 10)
    ok = (r50 - r40 < 1.0) and r40 <= exact and r50 <= exact
    _report(capsys, "fixed_bits_saturation", ok,
            f"throughput 40->50 dB: {r40:.2f} -> {r50:.2f} (diff {r50 - r40:.3f} < 1), "
            f"ceiling {exact:.2f}")


def test_06_scaled_bits_offset(capsys):
    """Scaling bits with SNR pins the per-user loss under 1 bps/Hz and the
    realized power offset near 2.6 dB."""
    grid = tuple(float(s) for s in range(0, 35, 5))
    quant_cfg = SimConfig(M=5, K=5, snr_grid_db=grid, policy=ScalingPolicy.exact_scaled(2.0),
                          path=FAST_DECOMPOSITION, trials=10_000, seed=42)
    gap = rate_gap(quant_cfg)
    perfect = mu_throughput(SimConfig(M=5, K=5, snr_grid_db=grid, trials=10_000,
                                      seed=42))
    quant = mu_throughput(quant_cfg)
    offset = horizontal_offset_db(perfect, quant, 25.0, 30.0)
    ok = bool(np.all(gap.mean_bps_hz < 1.0)) and abs(offset - 2.6) <= 0.4
    _report(capsys, "scaled_bits_offset", ok,
            f"max per-user gap {gap.mean_bps_hz.max():.3f} < 1; offset {offset:.2f} dB "
            f"in 2.6+-0.4")


def test_07_dual_gap_6x6(capsys):
    """Doubling the target power gap doubles the realized dB offset (6x6)."""
    grid = tuple(float(s) for s in range(0, 35, 5))
    perfect = mu_throughput(SimConfig(M=6, K=6, snr_grid_db=grid, trials=10_000,
                                      seed=42))
    offsets = {}
    for b_gap, target in ((2.0, 2.5), (4.0, 5.0)):
        cfg = SimConfig(M=6, K=6, snr_grid_db=grid, policy=ScalingPolicy.approx_3db(b_gap),
                        path=FAST_DECOMPOSITION, trials=10_000, seed=42)
        offsets[b_gap] = horizontal_offset_db(perfect, mu_throughput(cfg), 20.0, 30.0)
    ok = abs(offsets[2.0] - 2.5) <= 0.5 and abs(offsets[4.0] - 5.0) <= 0.5
    _report(capsys, "dual_gap_6x6", ok,
            f"b=2 offset {offsets[2.0]:.2f} dB in 2.5+-0.5; "
            f"b=4 offset {offsets[4.0]:.2f} dB in 5.0+-0.5")


def test_08_multiplexing_gain(capsys):
    """Bit growth rate alpha*log2(P) sets the throughput slope, and
    overprovisioned growth drives the per-user loss to zero."""
    grid = tuple(float(s) for s in range(0, 45, 5))
    slopes = {}
    for alpha in (1.5, 3.9):  # 0.5 and 1.3 times (M - 1)
        cfg = SimConfig(M=4, K=4, snr_grid_db=grid, policy=ScalingPolicy.alpha_scaled(alpha),
                        path=FAST_DECOMPOSITION, trials=10_000, seed=42)
        slopes[alpha] = fit_multiplexing_gain(mu_throughput(cfg))
    gap = rate_gap(SimConfig(M=4, K=4, snr_grid_db=grid, policy=ScalingPolicy.alpha_scaled(3.9),
                             path=FAST_DECOMPOSITION, trials=4_000, seed=42))
    shrinking = gap.mean_bps_hz[-1] < gap.mean_bps_hz[4]
    ok = abs(slopes[1.5] - 2.0) <= 0.3 and abs(slopes[3.9] - 4.0) <= 0.3 and shrinking
    _report(capsys, "multiplexing_gain", ok,
            f"alpha=1.5 slope {slopes[1.5]:.2f} in 2.0+-0.3; alpha=3.9 slope "
            f"{slopes[3.9]:.2f} in 4.0+-0.3; gap 20->40 dB "
            f"{gap.mean_bps_hz[4]:.3f}->{gap.mean_bps_hz[-1]:.3f} shrinking={shrinking}")


def test_09_gap_bound_dominance(capsys):
    """Measured per-user loss never exceeds the analytic bound (3 SE slack)."""
    grid = tuple(float(s) for s in range(0, 35, 5))
    worst = -math.inf
    points = violations = 0
    for m in (3, 4, 5, 6):
        for b in (4, 8, 12):
            cfg = SimConfig(M=m, K=m, snr_grid_db=grid, policy=ScalingPolicy.fixed(b),
                            path=FAST_DECOMPOSITION, trials=2_000, seed=42)
            gap = rate_gap(cfg)
            for snr, dr, se in zip(gap.snr_db, gap.mean_bps_hz, gap.std_err):
                bound = rate_gap_bound(10.0 ** (snr / 10.0), m, b)
                slack = dr - (bound + 3.0 * se)
                worst = max(worst, slack)
                points += 1
                violations += slack > 0.0
    _report(capsys, "gap_bound_dominance", violations == 0,
            f"{points - violations}/{points} grid points below bound, "
            f"worst margin {worst:+.4f} bps/Hz")


def test_10_analytic_spot_values(capsys):
    """Closed-form helpers hit their published operating points."""
    offset5 = zf_dpc_power_offset_db(5)
    bits = feedback_bits(10.0, 4, 2.0, mode="approx_3")
    penalties = [rvq_bit_penalty(m) for m in range(2, 65)]
    ok = abs(offset5 - 5.55) <= 0.01 and bits == 10.0 and all(p < 1.4427 for p in penalties)
    _report(capsys, "analytic_spot_values", ok,
            f"DPC offset(5 ant) {offset5:.3f} dB; bits(10 dB, M=4, b=2) {bits:g}; "
            f"max bit penalty {max(penalties):.4f} < 1.4427")


def test_11_baseline_ordering(capsys):
    """Quantized ZF with scaled bits beats TDMA beats random beams at 15 dB,
    but TDMA beats 5-bit quantized ZF at 20 dB."""
    def zf_at(snr_db, policy):
        cfg = SimConfig(M=4, K=4, snr_grid_db=(snr_db,), policy=policy,
                        path=FAST_DECOMPOSITION, trials=10_000, seed=42)
        return float(mu_throughput(cfg).mean_bps_hz[0])

    def baseline_at(snr_db, runner):
        cfg = SimConfig(M=4, K=4, snr_grid_db=(snr_db,), trials=10_000, seed=42)
        return float(runner(cfg).mean_bps_hz[0])

    zf15 = zf_at(15.0, ScalingPolicy.approx_3db(2.0))
    tdma15 = baseline_at(15.0, tdma_throughput)
    rbf15 = baseline_at(15.0, random_bf_throughput)
    tdma20 = baseline_at(20.0, tdma_throughput)
    zf20_b5 = zf_at(20.0, ScalingPolicy.fixed(5))
    ok = zf15 > tdma15 > rbf15 and tdma20 > zf20_b5
    _report(capsys, "baseline_ordering", ok,
            f"15 dB: zf {zf15:.2f} > tdma {tdma15:.2f} > random_bf {rbf15:.2f}; "
            f"20 dB: tdma {tdma20:.2f} > zf_B5 {zf20_b5:.2f}")
