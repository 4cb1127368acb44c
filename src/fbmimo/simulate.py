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
brute codebooks are drawn and searched in shares (fbmimo.shares), one
contiguous run of a stack's trials per CPU the process may use, each run
on its own process; each trial still draws only from its own stream, and
hands its stream's state back, so the result is bit-identical whatever
the share count.  Everything else runs on the calling process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (ScalingPolicy, ThroughputCurve, random_bf_sum_rate, unitary_sum_rate,
                     zf_perfect_sum_rate)
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
# Brute-path shares are sized by a codebook's M * 2^B complex entries.  A
# fork has a fixed cost, which small codebooks do not repay: on 2 CPUs,
# without this gate, the engine took about 105 -> 143 ms at M=2, B=2 (5
# points x 300 trials) and 30 -> 50 ms at M=4, B=4 (40 trials).  A
# codebook's draw and search peak at 34-40 bytes per entry, so 2^20 entries
# over all of a stack's processes hold about 40 MiB.
_SHARE_MIN_ENTRIES = 1 << 11
_SHARE_BUDGET_ENTRIES = 1 << 20
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


def grid_bits(cfg: SimConfig) -> list[float]:
    """The feedback bits of every grid point, as the engines resolve them.
    Raises CapacityError, before anything is drawn, if the brute path
    cannot enumerate a point's codebook."""
    return [_resolve_bits(cfg, snr_db) for snr_db in cfg.snr_grid_db]


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(M: int, B: float, trials: int, cpus: int) -> int:
    """Shares that draw and search the codebooks of `trials` trials.

    One below _SHARE_MIN_ENTRIES entries (M * 2^B) per codebook, where a
    fork costs more than it saves.  Above, one per CPU and per trial, but
    no more than keep the shares' codebooks within _SHARE_BUDGET_ENTRIES
    together.
    """
    entries = M << int(B)
    if entries < _SHARE_MIN_ENTRIES:
        return 1
    return max(1, min(cpus, trials, _SHARE_BUDGET_ENTRIES // entries))


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i^H b_i over stacks (..., M), summed as np.vdot sums; einsum would not."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _sinr_table(H: np.ndarray, beams: np.ndarray, P: float) -> np.ndarray:
    """SINR of each user on each beam, (..., K, beams), for channel stacks
    (..., K, M) and beams (..., M, beams) that share P equally."""
    gains = np.abs(H.conj() @ beams) ** 2
    per_stream = P / beams.shape[-1]
    return per_stream * gains / (1.0 + per_stream * (gains.sum(axis=-1, keepdims=True) - gains))


def _sum_rate(H: np.ndarray, vectors: np.ndarray, P: float) -> np.ndarray:
    """Per-trial sum rates for channel stacks (..., K, M) and beams (..., M, K)."""
    sinr = np.diagonal(_sinr_table(H, vectors, P), axis1=-2, axis2=-1)
    return np.log2(1.0 + sinr).sum(axis=-1)


def _nearest_unitary(beams: np.ndarray) -> np.ndarray:
    """U V^H for each beam matrix U S V^H (its SVD): the unitary nearest it,
    its polar factor.  All NaN if a beam matrix is not finite, as the rate
    on it is then too; the SVD would not converge."""
    if not np.isfinite(beams).all():
        return np.full_like(beams, np.nan)
    u, _, vh = np.linalg.svd(beams)
    return u @ vh


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
# an evaluate(cfg, P, B, *arrays) -> one value per trial, or (trials, 1 + k)
# rows of the rate and its k control variates.  There are three draws:
# perfect CSIT (H), quantized CSIT (H, h_hat, ||h||^2, Z) and random
# beamforming (H and a Haar beam matrix).

def _perfect_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    """Channel rows H, (trials, K, M): the transmitter knows H itself."""
    return (sample_complex_gaussian(cfg.M, gens, size=cfg.K),)


def _quantized_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    """Channel rows H and quantized unit directions h_hat, (trials, K, M), and
    each user's ||h||^2 and error Z = sin^2(angle(h, h_hat)), (trials, K)."""
    M, K = cfg.M, cfg.K
    if cfg.path == BRUTE_FORCE:
        from .shares import run_in_shares  # here, so that importing fbmimo.cli never loads it
        H = sample_complex_gaussian(M, gens, size=K)
        workers = _workers(M, B, len(gens), _cpus())
        edges = [len(gens) * w // workers for w in range(workers + 1)]

        def search(w: int) -> tuple:
            """Run w's quantized directions and errors, copied out of the
            codebooks so that none outlives its search, and, but for run 0,
            which runs on the calling process, its streams' states after
            their codebooks."""
            run = range(edges[w], edges[w + 1])
            h_hat, z = np.empty((len(run), K, M), complex), np.empty((len(run), K))
            for j, t in enumerate(run):
                for i in range(K):
                    q = quantize(H[t, i], generate_codebook(M, B, gens[t]))
                    h_hat[j, i], z[j, i] = q.h_hat, q.error_z
            return h_hat, z, [gens[t].bit_generator.state for t in run] if w else []

        h_hats, zs, states = zip(*run_in_shares(search, [[w] for w in range(workers)]))
        # a singular redraw continues each stream where a serial run would
        for gen, state in zip(gens[edges[1]:], (state for part in states for state in part)):
            gen.bit_generator.state = state
        return H, np.concatenate(h_hats), _vdot_rows(H, H).real, np.concatenate(zs)
    h_dir, h_hat, z = sample_quantized_pair(M, B, gens, size=K)
    mag2 = draw_rows(gens, lambda gen: gen.gamma(M, 1.0, size=K))
    return np.sqrt(mag2)[..., None] * h_dir, h_hat, mag2, z


def _beams(cfg: SimConfig, P: float, directions: np.ndarray) -> np.ndarray:
    """The configured precoder's beams for users along `directions`."""
    G = directions.conj()
    return zf_beamformers(G) if cfg.precoder == ZF else rzf_beamformers(G, P)


def _mu_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray) -> np.ndarray:
    """Perfect-CSIT sum rates."""
    return _sum_rate(H, _beams(cfg, P, H), P)


def _quantized_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray, h_hat: np.ndarray,
                     mag2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Quantized-CSIT sum rates, S and, where B > 0, C1' on the ZF beams of
    h_hat, else the rate on the polar factor of the rate's beams: shape
    (trials, 3).  See mu_throughput."""
    G = h_hat.conj()
    zf = zf_beamformers(G) if cfg.precoder == ZF or B > 0 else None
    beams = zf if cfg.precoder == ZF else rzf_beamformers(G, P)
    if B > 0:
        gain = _vdot_rows(h_hat, np.swapaxes(zf, -1, -2))
        second = np.log2(1.0 + (P / cfg.M) * mag2 * (gain.real * gain.real
                                                      + gain.imag * gain.imag)).sum(axis=-1)
    else:
        second = _sum_rate(H, _nearest_unitary(beams), P)
    return np.stack([_sum_rate(H, beams, P), z.sum(axis=-1), second], axis=-1)


def _gap_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray, h_hat: np.ndarray,
               mag2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-user perfect-CSIT minus quantized sum rate on one shared channel draw."""
    return (_mu_rates(cfg, P, B, H) - _sum_rate(H, _beams(cfg, P, h_hat), P)) / cfg.M


def _miso_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray, h_hat: np.ndarray,
                mag2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The one user's rate on a beam along its quantized direction."""
    return _log2(1.0 + P * mag2[:, 0] * (1.0 - z[:, 0]))


def _tdma_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray) -> np.ndarray:
    best = np.max(np.sum(np.abs(H) ** 2, axis=-1), axis=-1)
    return _log2(1.0 + P * best)


def _random_bf_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    return sample_complex_gaussian(cfg.M, gens, size=cfg.K), haar_unitary(cfg.M, gens)


def _random_bf_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray,
                     beams: np.ndarray) -> np.ndarray:
    """Random-beamforming sum rates and, as their control variate, the sum
    over beams of log2(1 + the beam's best SINR) on the same draw, where a
    user may be best on several beams: shape (trials, 2)."""
    sinr_table = _sinr_table(H, beams, P)
    best_beam = np.argmax(sinr_table, axis=-1)
    best_val = np.take_along_axis(sinr_table, best_beam[..., None], axis=-1)
    # each beam's highest claim; an unclaimed beam adds log2(1 + 0) = 0,
    # and the beams' rates are summed in order, as one float at a time
    claims = np.where(best_beam[..., None] == np.arange(cfg.M), best_val, 0.0).max(axis=-2)
    rates = np.add.accumulate(_log2(1.0 + claims), axis=-1)[..., -1]
    return np.stack([rates, np.log2(1.0 + sinr_table.max(axis=-2)).sum(axis=-1)], axis=-1)


def _regression_estimate(rates: np.ndarray, controls: np.ndarray,
                         control_means: tuple) -> tuple[float, float]:
    """Control-variate estimate of the mean of `rates`, and its std_err.

    controls holds one row per control variate and control_means their
    exact means; a row whose mean is None, or that is constant, is dropped.
    The estimate is mean(rates) - beta . (mean(controls) - control_means),
    with beta the least-squares fit of the centred rates on the k centred
    controls (by the normal equations), and the std_err is the residuals' standard deviation on
    n - 1 - k degrees of freedom over sqrt(n) (Glasserman, Monte Carlo
    Methods in Financial Engineering, 2004, section 4.1).  With no control
    left or fewer than k + 2 trials, the plain mean and std_err.
    """
    n = len(rates)
    rows = [j for j, mean in enumerate(control_means) if mean is not None]
    exact = np.array([control_means[j] for j in rows], dtype=float)
    bars = controls[rows].mean(axis=-1)
    dc = controls[rows] - bars[:, None]
    scale = np.sqrt((dc * dc).sum(axis=-1))
    varies = scale > 0.0
    k = int(varies.sum())
    if k == 0 or n < k + 2:
        return float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    rate_bar = float(rates.mean())
    dy = rates - rate_bar
    # unit-norm columns keep the normal equations well scaled when one
    # control is far smaller than another (S is ~1e-17 at large B)
    design = dc[varies] / scale[varies, None]
    beta = np.linalg.solve(design @ design.T, design @ dy)
    residual = dy - beta @ design
    shift = (bars - exact)[varies] / scale[varies]
    return (rate_bar - float(beta @ shift),
            math.sqrt(float((residual * residual).sum()) / ((n - 1 - k) * n)))


def _curve(cfg: SimConfig, label: str, draw, evaluate, policy: str | None = None,
           precoder: str | None = None, control=lambda P, B: ()) -> ThroughputCurve:
    """Sweep the SNR grid and average the engine's per-trial rates.

    Every point's bits are resolved before the first draw, so a grid with
    a point the path cannot take fails before any is computed.  Every
    trial retries its draw while the beamformer build is singular and the
    discarded draws are counted per point.  A point whose mean or std_err
    is not finite raises ConfigError, in place of numpy's overflow,
    invalid-value and divide-by-zero warnings.  control(P, B) gives the
    exact means of k control variates at power P and resolved bits B;
    evaluate returns (trials, 1 + k) rows of rate and controls, or one rate
    per trial where k = 0, and each point reports the regression estimate
    on the controls whose mean is not None: with none, the plain mean.
    """
    bits = grid_bits(cfg)
    means, errs, resamples = [], [], []
    for snr_db, B in zip(cfg.snr_grid_db, bits):
        P = 10.0 ** (snr_db / 10.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values, discarded = _trials(cfg.trials, cfg.seed, lambda gens: draw(gens, cfg, B),
                                        lambda *arrays: evaluate(cfg, P, B, *arrays))
            # each column contiguous, so its sums run in one order for every k
            columns = np.ascontiguousarray(values.reshape(cfg.trials, -1).T)
            mean, err = _regression_estimate(columns[0], columns[1:], control(P, B))
        if not (math.isfinite(mean) and math.isfinite(err)):
            raise ConfigError(f"{label} is not finite at SNR {snr_db} dB: "
                              "a rate or beam is not finite")
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

    Quantized-CSIT points are control-variate (regression) estimates on
    two controls computed on each trial's own draw, both with exact means.
    The first is S = sum_i Z_i, the users' quantization errors as drawn,
    with mean K * quantizer.expected_error(M, B) at the point's resolved
    bits B (on the brute path, B rounded up), since both paths draw each
    Z_i from the random-codebook law.  The second depends on B:

    - B > 0: C1' = sum_i log2(1 + (P/M) ||h_i||^2 |h_hat_i^H v_i|^2) on the
      ZF beams v_i of the quantized directions.  The h_hat_i are iid
      isotropic (drawn so on the fast path; on the brute path the random
      codebook is unitarily invariant), independent of every ||h_j||^2,
      and ZF beams depend only on row directions, so C1' has the law of the
      perfect-CSIT ZF sum rate, with mean bounds.zf_perfect_sum_rate(P, M).
      For ZF these are the rate's own beams.  RZF builds them too, so an
      RZF point with B > 0 redraws a trial whose quantized directions are
      singular, as ZF does.
    - B = 0: the sum rate on Q = U V^H, the unitary nearest the rate's own
      beam matrix U S V^H.  A one-word codebook carries no information, so
      on both paths Q is independent of H, each user's gain on its own
      column is Exp(1) and on the others Gamma(M - 1, 1), independently;
      the mean is bounds.unitary_sum_rate(P, M).

    Perfect-CSIT points are plain means.
    """
    _require_square(cfg)
    if cfg.policy is None:
        return _curve(cfg, label or f"{cfg.precoder.lower()}_perfect", _perfect_draw, _mu_rates)
    return _curve(cfg, label or f"{cfg.precoder.lower()}_quantized", _quantized_draw,
                  _quantized_rates,
                  control=lambda P, B: (cfg.K * expected_error(cfg.M, B),
                                        zf_perfect_sum_rate(P, cfg.M) if B > 0
                                        else unitary_sum_rate(P, cfg.M)))


def rate_gap(cfg: SimConfig, label: str = "rate_gap") -> ThroughputCurve:
    """Per-user throughput loss (R_perfect - R_quantized)/M versus SNR.

    Both arms of every trial share one channel and quantization draw
    (common random numbers), so the gap estimate is far less noisy than
    differencing two independent sweeps.
    """
    _require_square(cfg)
    if cfg.policy is None:
        raise ConfigError("rate_gap compares quantized with perfect CSIT; give a feedback policy")
    return _curve(cfg, label, _quantized_draw, _gap_rates)


def miso_feedback_throughput(cfg: SimConfig, label: str = "miso_fb_quantized") -> ThroughputCurve:
    """Single-user beamforming rate E[log2(1 + P ||h||^2 cos^2(angle))]
    when the transmitter steers along the quantized direction."""
    if cfg.K != 1:
        raise ConfigError(f"miso engine requires K == 1, got K={cfg.K}")
    if cfg.policy is None:
        raise ConfigError("miso engine models quantized feedback; give a feedback policy")
    return _curve(cfg, label, _quantized_draw, _miso_rates, precoder="BF")


def tdma_throughput(cfg: SimConfig, label: str = "tdma") -> ThroughputCurve:
    """Serve only the instantaneously strongest of K users with full-power
    perfect-CSIT beamforming: log2(1 + P max_i ||h_i||^2)."""
    return _curve(replace(cfg, policy=None), label, _perfect_draw, _tdma_rates, policy="tdma",
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
                  control=lambda P, B: (random_bf_sum_rate(P, cfg.M, cfg.K) if cfg.M > 1
                                        else None,))


def collect_zf_statistics(M: int, B: float, n_trials: int, seed: int,
                          path: str = BRUTE_FORCE) -> dict:
    """Per-trial quantized-ZF statistics for distributional checks.

    Runs the full K=M pipeline and records, per trial, the direction
    signal gain |h_dir_0^H v_0|^2, one cross gain |h_dir_1^H v_0|^2, and
    user 1's quantization error Z as drawn, plus the singular-resample count.
    """
    B = _codebook_bits(B) if path == BRUTE_FORCE else float(B)
    cfg = SimConfig(M=M, K=M, snr_grid_db=(0.0,), path=path)  # a draw reads M, K and path

    def statistics(H, h_hat, mag2, z):
        v0 = zf_beamformers(h_hat.conj())[..., 0]
        dirs = H / np.linalg.norm(H, axis=-1, keepdims=True)
        return np.stack([np.abs(_vdot_rows(dirs[:, 0], v0)) ** 2,
                         np.abs(_vdot_rows(dirs[:, 1], v0)) ** 2, z[:, 1]], axis=-1)

    vals, resamples = _trials(n_trials, seed, lambda gens: _quantized_draw(gens, cfg, B),
                              statistics)
    return {
        "signal": vals[:, 0],
        "interference": vals[:, 1],
        "error_z": vals[:, 2],
        "resamples": resamples,
    }
