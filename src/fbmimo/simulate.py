"""Monte Carlo throughput engines.

Every engine sweeps an SNR grid and averages per-trial sum rates.  Trial t
draws all of its randomness from RngStream(seed, t), so results are
bit-identical for a given (config, seed), and channel draws are shared
across SNR points and across engines that draw in the same order, which
acts as common random numbers for gap and offset measurements.  At each
point an engine draws every trial's inputs from its own stream, then forms
channels, beams and rates for the whole stack of trials at once.

Two quantized-CSIT paths are available: brute_force enumerates a fresh
random codebook per user per trial (integer B with M * 2^B <= 2^24;
non-integer B is rounded up), while fast_decomposition samples the error
statistic directly and is exact in distribution at any real B.  Large
brute codebooks are drawn and searched on threads, one contiguous run of a
stack's trials per CPU the process may use; each trial still draws only
from its own stream, so the result is bit-identical whatever the thread
count.  Everything else runs on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .bounds import ScalingPolicy, ThroughputCurve, random_bf_sum_rate, zf_perfect_sum_rate
from .errors import CapacityError, ConfigError, ResampleLimitError, SingularMatrixError
from .numerics import RngStream, draw_rows, haar_unitary, sample_complex_gaussian
from .precoder import RZF, ZF, rzf_beamformers, zf_beamformers
from .quantizer import (_enumerable_bits, expected_error, generate_codebook, quantize,
                        sample_quantized_pair)

BRUTE_FORCE = "brute_force"
FAST_DECOMPOSITION = "fast_decomposition"

DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42

_MAX_RESAMPLES = 1000
_BLOCK = 1024  # trials drawn and evaluated as one stack
# Brute-path threads are sized by a codebook's M * 2^B complex entries.
# On 2 CPUs, one trial stack of 1024, two threads beat one from 2048 entries
# per codebook (M=2, B=10; M=4, B=9; M=8, B=8: 10-19% faster, 10/10 pairs),
# broke even at 1536 and lost at 1024 (about 20% slower).  A codebook's draw
# and search peak at 34-40 bytes per entry, so 2^20 entries over all
# threads hold about 40 MiB.
_THREAD_MIN_ENTRIES = 1 << 11
_THREAD_BUDGET_ENTRIES = 1 << 20
# the highest SNR point; a point's power 10^(dB/10) overflows from ~3082.55 dB
MAX_SNR_DB = 3082.5


@dataclass(frozen=True)
class SimConfig:
    """M transmit antennas, K users and an SNR grid in dB.  policy=None is
    perfect CSIT, a ScalingPolicy quantized CSIT.  mu_throughput and
    rate_gap read policy, precoder and path; miso_feedback_throughput reads
    policy and path; the TDMA and random-beamforming baselines read none."""

    M: int
    K: int
    snr_grid_db: tuple
    policy: ScalingPolicy | None = None
    precoder: str = ZF
    path: str = FAST_DECOMPOSITION
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.precoder not in (ZF, RZF):
            raise ConfigError(f"precoder must be ZF or RZF, got {self.precoder!r}")
        if self.path not in (BRUTE_FORCE, FAST_DECOMPOSITION):
            raise ConfigError(f"path must be brute_force or fast_decomposition, got {self.path!r}")
        grid = tuple(float(x) for x in self.snr_grid_db)
        if not all(-math.inf < x <= MAX_SNR_DB for x in grid):
            raise ConfigError(f"snr_grid_db points must be finite and at most {MAX_SNR_DB} dB")
        if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("snr_grid_db must be non-empty and strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)


def trial_streams(seed: int, start: int, stop: int) -> list:
    """Generators of trials start..stop-1.  Trial t draws only from
    RngStream(seed, t), so its result does not depend on the trials around it."""
    return [RngStream(seed, t).generator() for t in range(start, stop)]


def _codebook_bits(B: float) -> float:
    """B rounded up to a whole codebook, with 1e-9 of slack for rounding noise."""
    return float(math.ceil(B - 1e-9))


def _resolve_bits(cfg: SimConfig, snr_db: float) -> float:
    """Feedback bits at this point: the policy's real-valued count, rounded
    up to a whole codebook on the brute path, NaN under perfect CSIT."""
    if cfg.policy is None:
        return math.nan
    B = cfg.policy.bits(snr_db, cfg.M)
    if cfg.path != BRUTE_FORCE:
        return B
    try:  # before any codebook is drawn
        return float(_enumerable_bits(cfg.M, _codebook_bits(B)))
    except CapacityError as err:
        raise CapacityError(f"brute_force: {err}; policy asks for {B:.2f} bits at {snr_db} dB; "
                            "use the fast_decomposition path") from None


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(M: int, B: float, trials: int, cpus: int) -> int:
    """Threads that draw and search the codebooks of `trials` trials.

    One below _THREAD_MIN_ENTRIES entries (M * 2^B) per codebook, where
    per-codebook Python holds the interpreter lock longer than numpy drops
    it.  Above, one per CPU and per trial, but no more than keep the
    threads' codebooks within _THREAD_BUDGET_ENTRIES together.
    """
    entries = M << int(B)
    if entries < _THREAD_MIN_ENTRIES:
        return 1
    return max(1, min(cpus, trials, _THREAD_BUDGET_ENTRIES // entries))


def _each_trial(n: int, work, workers: int) -> None:
    """work(t) for t in 0..n-1, as `workers` contiguous runs of trials.

    The calling thread runs the first run and one thread each the rest.
    work(t) may touch only trial t's generator and output rows, so the
    result does not depend on the split.  If runs fail, the exception of
    the lowest one is raised, the one a serial loop would have raised.
    """
    edges = [n * w // workers for w in range(workers + 1)]
    errors = [None] * workers

    def run(w: int) -> None:
        try:
            for t in range(edges[w], edges[w + 1]):
                work(t)
        except BaseException as err:  # re-raised below, after every join
            errors[w] = err

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for err in errors:
        if err is not None:
            raise err


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i^H b_i over stacks (..., M), summed as np.vdot sums; einsum would not."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _draw_quantized(gens: list, M: int, K: int, B: float, path: str) -> tuple:
    """Channel rows H and quantized unit directions h_hat, (trials, K, M), and
    each user's ||h||^2 and error Z = sin^2(angle(h, h_hat)), (trials, K)."""
    if path == BRUTE_FORCE:
        H = sample_complex_gaussian(M, gens, size=K)
        h_hat = np.empty_like(H)
        z = np.empty(H.shape[:-1])

        def search(t: int) -> None:
            for i in range(K):
                q = quantize(H[t, i], generate_codebook(M, B, gens[t]))
                h_hat[t, i], z[t, i] = q.h_hat, q.error_z

        _each_trial(len(gens), search, _workers(M, B, len(gens), _cpus()))
        return H, h_hat, _vdot_rows(H, H).real, z
    h_dir, h_hat, z = sample_quantized_pair(M, B, gens, size=K)
    mag2 = draw_rows(gens, lambda gen: gen.gamma(M, 1.0, size=K))
    return np.sqrt(mag2)[..., None] * h_dir, h_hat, mag2, z


def _sum_rate(H: np.ndarray, vectors: np.ndarray, P: float) -> np.ndarray:
    """Per-trial sum rates for channel stacks (..., K, M) and beams (..., M, K)."""
    gains = np.abs(H.conj() @ vectors) ** 2
    per_stream = P / vectors.shape[-1]
    diagonal = np.diagonal(gains, axis1=-2, axis2=-1)
    signal = per_stream * diagonal
    interference = per_stream * (gains.sum(axis=-1) - diagonal)
    return np.log2(1.0 + signal / (1.0 + interference)).sum(axis=-1)


def _error_sum(H: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """Per-trial sum of the users' quantization errors Z_i = 1 - |h_dir_i^H
    h_hat_i|^2, each clamped to [0, 1], for channel rows H and unit
    directions h_hat of shape (trials, K, M)."""
    cos = _vdot_rows(H / np.linalg.norm(H, axis=-1, keepdims=True), h_hat)
    return np.clip(1.0 - (cos.real * cos.real + cos.imag * cos.imag), 0.0, 1.0).sum(axis=-1)


def _log2(x: np.ndarray) -> np.ndarray:
    """math.log2 elementwise.  The single-user and baseline rates have
    always been math.log2 values, from which np.log2's SIMD kernel differs
    in the last bit for about one input in 10^4."""
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _resampled(gens: list, draw, evaluate) -> tuple[np.ndarray, int]:
    """evaluate(*draw(gens)), one value per trial, where a trial whose
    beamformer build is singular draws afresh from its own stream.  Returns
    the values and the number of discarded draws."""
    draws = draw(gens)
    discarded = np.zeros(len(gens), dtype=int)
    while True:
        try:
            return evaluate(*draws), int(discarded.sum())
        except SingularMatrixError as err:
            rows = np.arange(len(gens)) if err.rows is None else np.flatnonzero(err.rows)
        discarded[rows] += 1
        if discarded.max() >= _MAX_RESAMPLES:
            raise ResampleLimitError(
                f"exceeded {_MAX_RESAMPLES} singular-channel resamples in one trial")
        for values, fresh in zip(draws, draw([gens[t] for t in rows])):
            values[rows] = fresh


def _trials(n_trials: int, seed: int, draw, evaluate) -> tuple[np.ndarray, int]:
    """Per-trial values and discarded draws over trials 0..n_trials-1,
    drawn and evaluated as stacks of at most _BLOCK trials."""
    values, discarded = [], 0
    for start in range(0, n_trials, _BLOCK):
        block, n = _resampled(trial_streams(seed, start, min(start + _BLOCK, n_trials)),
                              draw, evaluate)
        values.append(block)
        discarded += n
    return np.concatenate(values), discarded


# Each engine is a draw(gens, cfg, B) -> arrays with one row per trial and
# an evaluate(cfg, P, *arrays) -> one value per trial.

def _mu_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    """H and the directions the transmitter knows: H itself under perfect CSIT."""
    if cfg.policy is None:
        H = sample_complex_gaussian(cfg.M, gens, size=cfg.K)
        return H, H
    return _draw_quantized(gens, cfg.M, cfg.K, B, cfg.path)[:2]


def _mu_rates(cfg: SimConfig, P: float, H: np.ndarray, directions: np.ndarray) -> np.ndarray:
    G = directions.conj()
    return _sum_rate(H, zf_beamformers(G) if cfg.precoder == ZF else rzf_beamformers(G, P), P)


def _zf_rates_and_control(cfg: SimConfig, P: float, H: np.ndarray,
                          h_hat: np.ndarray) -> np.ndarray:
    """Quantized-ZF sum rates and, as their control variate, the sum rate
    the same beams v_i would give if each channel lay along its quantized
    direction, sum_i log2(1 + (P/M) ||h_i||^2 |h_hat_i^H v_i|^2): shape
    (trials, 2).  One ZF build per stack serves both."""
    beams = zf_beamformers(h_hat.conj())
    gain = _vdot_rows(h_hat, np.swapaxes(beams, -1, -2))
    mag2 = _vdot_rows(H, H).real
    control = np.log2(1.0 + (P / cfg.M) * mag2 * (gain.real * gain.real + gain.imag * gain.imag))
    return np.stack([_sum_rate(H, beams, P), control.sum(axis=-1)], axis=-1)


def _rzf_rates_and_control(cfg: SimConfig, P: float, H: np.ndarray,
                           h_hat: np.ndarray) -> np.ndarray:
    """Quantized-RZF sum rates and, as their control variate, the sum of
    the users' quantization errors on the same draws: shape (trials, 2)."""
    return np.stack([_mu_rates(cfg, P, H, h_hat), _error_sum(H, h_hat)], axis=-1)


def _gap_rates(cfg: SimConfig, P: float, H: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """Per-user perfect-CSIT minus quantized sum rate on one shared channel draw."""
    return (_mu_rates(cfg, P, H, H) - _mu_rates(cfg, P, H, h_hat)) / cfg.M


def _miso_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    """Channel power ||h||^2 and quantization error Z: one user's quantized draw."""
    _, _, mag2, z = _draw_quantized(gens, cfg.M, 1, B, cfg.path)
    return mag2[:, 0], z[:, 0]


def _miso_rates(cfg: SimConfig, P: float, mag2: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _log2(1.0 + P * mag2 * (1.0 - z))


def _tdma_rates(cfg: SimConfig, P: float, H: np.ndarray, _: np.ndarray) -> np.ndarray:
    best = np.max(np.sum(np.abs(H) ** 2, axis=-1), axis=-1)
    return _log2(1.0 + P * best)


def _random_bf_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    return sample_complex_gaussian(cfg.M, gens, size=cfg.K), haar_unitary(cfg.M, gens)


def _random_bf_rates(cfg: SimConfig, P: float, H: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """Random-beamforming sum rates and, as their control variate, the sum
    over beams of log2(1 + the beam's best SINR) on the same draw, where a
    user may be best on several beams: shape (trials, 2)."""
    gains = np.abs(H.conj() @ beams) ** 2
    per_stream = P / cfg.M
    sig = per_stream * gains
    denom = 1.0 + per_stream * (gains.sum(axis=-1, keepdims=True) - gains)
    sinr_table = sig / denom
    best_beam = np.argmax(sinr_table, axis=-1)
    best_val = np.take_along_axis(sinr_table, best_beam[..., None], axis=-1)
    # each beam's highest claim; an unclaimed beam adds log2(1 + 0) = 0,
    # and the beams' rates are summed in order, as one float at a time
    claims = np.where(best_beam[..., None] == np.arange(cfg.M), best_val, 0.0).max(axis=-2)
    rates = np.add.accumulate(_log2(1.0 + claims), axis=-1)[..., -1]
    return np.stack([rates, np.log2(1.0 + sinr_table.max(axis=-2)).sum(axis=-1)], axis=-1)


def _plain_estimate(rates: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    n = len(rates)
    return float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _regression_estimate(rates: np.ndarray, control: np.ndarray,
                         control_mean: float | None) -> tuple[float, float]:
    """Control-variate estimate of the mean of `rates`, and its std_err.

    mean(rates) - beta (mean(control) - control_mean) with the least-squares
    beta, and the residuals' standard deviation on n - 2 degrees of freedom
    over sqrt(n) (Glasserman, Monte Carlo Methods in Financial Engineering,
    2004, section 4.1).  Below 3 trials, for a constant control, or with no
    control_mean (None), the plain mean and std_err.
    """
    n = len(rates)
    if control_mean is None:
        return _plain_estimate(rates)
    control_bar = float(control.mean())
    dc = control - control_bar
    sxx = float((dc * dc).sum())
    if n < 3 or sxx == 0.0:
        return _plain_estimate(rates)
    rate_bar = float(rates.mean())
    dy = rates - rate_bar
    beta = float((dc * dy).sum()) / sxx
    residual = dy - beta * dc
    return (rate_bar - beta * (control_bar - control_mean),
            math.sqrt(float((residual * residual).sum()) / ((n - 2) * n)))


def _curve(cfg: SimConfig, label: str, draw, evaluate, policy: str | None = None,
           precoder: str | None = None, control=None) -> ThroughputCurve:
    """Sweep the SNR grid and average the engine's per-trial rates.

    Every point's bits are resolved before the first draw, so a grid with
    a point the path cannot take fails before any is computed.  Every
    trial retries its draw while the beamformer build is singular and the
    discarded draws are counted per point.  A point whose mean or std_err
    is not finite raises ConfigError, in place of numpy's overflow and
    invalid-value warnings.  With control(P, B), the exact mean of a
    control variate at power P and resolved bits B, evaluate returns
    (trials, 2) rows of rate and control, and each point reports the
    regression estimate, or the plain one where control(P, B) is None.
    """
    bits = [_resolve_bits(cfg, snr_db) for snr_db in cfg.snr_grid_db]
    means, errs, resamples = [], [], []
    for snr_db, B in zip(cfg.snr_grid_db, bits):
        P = 10.0 ** (snr_db / 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            values, discarded = _trials(cfg.trials, cfg.seed, lambda gens: draw(gens, cfg, B),
                                        lambda *arrays: evaluate(cfg, P, *arrays))
            if control is None:
                mean, err = _plain_estimate(values)
            else:  # each column contiguous, so its sums run in the plain estimate's order
                rates, controls = np.ascontiguousarray(values.T)
                mean, err = _regression_estimate(rates, controls, control(P, B))
        if not (math.isfinite(mean) and math.isfinite(err)):
            raise ConfigError(f"{label} is not finite at SNR {snr_db} dB: a rate overflows")
        means.append(mean)
        errs.append(err)
        resamples.append(discarded)
    if policy is None:
        policy = "perfect" if cfg.policy is None else cfg.policy.describe()
    return ThroughputCurve(
        label=label, snr_db=np.array(cfg.snr_grid_db), mean_bps_hz=np.array(means),
        std_err=np.array(errs), trials=np.full(len(cfg.snr_grid_db), cfg.trials),
        M=cfg.M, K=cfg.K, policy=policy, precoder=precoder or cfg.precoder, seed=cfg.seed,
        b_bits=np.array(bits), resamples=np.array(resamples))


def _require_square(cfg: SimConfig) -> None:
    if cfg.K != cfg.M:
        raise ConfigError(f"multiuser engine requires K == M, got K={cfg.K}, M={cfg.M}")


def mu_throughput(cfg: SimConfig, label: str | None = None) -> ThroughputCurve:
    """Sum throughput M * E[log2(1 + SINR)] for the M-antenna, K=M-user
    downlink under the configured precoder and CSIT model.

    Quantized-CSIT points are control-variate (regression) estimates, with
    a control computed on each trial's own draw whose mean is exact.  For
    ZF it is sum_i log2(1 + (P/M) ||h_i||^2 |h_hat_i^H v_i|^2) on the
    quantized ZF beams v_i the rate uses.  The h_hat_i are iid isotropic
    (drawn so on the fast path; on the brute path the random codebook is
    unitarily invariant), independent of every ||h_j||^2, and ZF beams
    depend only on row directions, so it has the law of the perfect-CSIT
    ZF sum rate and the exact mean bounds.zf_perfect_sum_rate(P, M).  For
    RZF it is the users' summed quantization errors Z_i = 1 -
    |h_dir_i^H h_hat_i|^2, with mean K * quantizer.expected_error(M, B) at
    the point's resolved bits B (on the brute path, B rounded up), since
    both paths draw each Z_i from the random-codebook law.  Perfect-CSIT
    points are plain means.
    """
    _require_square(cfg)
    if cfg.policy is None:
        return _curve(cfg, label or f"{cfg.precoder.lower()}_perfect", _mu_draw, _mu_rates)
    label = label or f"{cfg.precoder.lower()}_quantized"
    if cfg.precoder == ZF:
        return _curve(cfg, label, _mu_draw, _zf_rates_and_control,
                      control=lambda P, B: zf_perfect_sum_rate(P, cfg.M))
    return _curve(cfg, label, _mu_draw, _rzf_rates_and_control,
                  control=lambda P, B: cfg.K * expected_error(cfg.M, B))


def rate_gap(cfg: SimConfig, label: str = "rate_gap") -> ThroughputCurve:
    """Per-user throughput loss (R_perfect - R_quantized)/M versus SNR.

    Both arms of every trial share one channel and quantization draw
    (common random numbers), so the gap estimate is far less noisy than
    differencing two independent sweeps.
    """
    _require_square(cfg)
    if cfg.policy is None:
        raise ConfigError("rate_gap compares quantized with perfect CSIT; give a feedback policy")
    return _curve(cfg, label, _mu_draw, _gap_rates)


def miso_feedback_throughput(cfg: SimConfig, label: str = "miso_fb_quantized") -> ThroughputCurve:
    """Single-user beamforming rate E[log2(1 + P ||h||^2 cos^2(angle))]
    when the transmitter steers along the quantized direction."""
    if cfg.K != 1:
        raise ConfigError(f"miso engine requires K == 1, got K={cfg.K}")
    if cfg.policy is None:
        raise ConfigError("miso engine models quantized feedback; give a feedback policy")
    return _curve(cfg, label, _miso_draw, _miso_rates, precoder="BF")


def tdma_throughput(cfg: SimConfig, label: str = "tdma") -> ThroughputCurve:
    """Serve only the instantaneously strongest of K users with full-power
    perfect-CSIT beamforming: log2(1 + P max_i ||h_i||^2)."""
    return _curve(replace(cfg, policy=None), label, _mu_draw, _tdma_rates, policy="tdma",
                  precoder="BF")


def random_bf_throughput(cfg: SimConfig, label: str = "random_bf") -> ThroughputCurve:
    """M random orthonormal beams; each user reports its best beam's SINR,
    each beam goes to the highest reporter, unclaimed beams send nothing.

    Points are control-variate (regression) estimates.  The control is
    R = sum_m log2(1 + max_k SINR_km), the rate if every beam served its
    best user even where that user is best on another beam too, with mean
    bounds.random_bf_sum_rate(P, M, K).  Where that alternating sum cancels
    too far to trust (large K; it returns None), and at M = 1, where the
    rate is R itself and the point would be the closed form with std_err 0,
    points are plain means.
    """
    if cfg.K < cfg.M:
        raise ConfigError(f"random beamforming requires K >= M, got K={cfg.K}, M={cfg.M}")
    return _curve(replace(cfg, policy=None), label, _random_bf_draw, _random_bf_rates,
                  policy="random_bf/max-sinr-claim", precoder="BF",
                  control=lambda P, B: random_bf_sum_rate(P, cfg.M, cfg.K) if cfg.M > 1 else None)


def collect_zf_statistics(M: int, B: float, n_trials: int, seed: int,
                          path: str = BRUTE_FORCE) -> dict:
    """Per-trial quantized-ZF statistics for distributional checks.

    Runs the full K=M pipeline and records, per trial, the direction
    signal gain |h_dir_0^H v_0|^2, one cross gain |h_dir_1^H v_0|^2, and
    user 1's quantization error, plus the singular-resample count.
    """
    B = _codebook_bits(B) if path == BRUTE_FORCE else float(B)

    def statistics(H, h_hat):
        beams = zf_beamformers(h_hat.conj())
        dirs = H / np.linalg.norm(H, axis=-1, keepdims=True)
        out = np.empty((len(H), 3))
        for t in range(len(H)):  # np.vdot's sums, which an einsum would reorder
            out[t] = (abs(np.vdot(dirs[t, 0], beams[t, :, 0])) ** 2,
                      abs(np.vdot(dirs[t, 1], beams[t, :, 0])) ** 2,
                      min(max(1.0 - abs(np.vdot(dirs[t, 1], h_hat[t, 1])) ** 2, 0.0), 1.0))
        return out

    vals, resamples = _trials(n_trials, seed,
                              lambda gens: _draw_quantized(gens, M, M, B, path)[:2], statistics)
    return {
        "signal": vals[:, 0],
        "interference": vals[:, 1],
        "error_z": vals[:, 2],
        "resamples": resamples,
    }
