"""Monte Carlo throughput engines.

Every engine sweeps an SNR grid and averages per-trial sum rates.  Trial t
draws all of its randomness from RngStream(seed, t), so results are
bit-identical for a given (config, seed) on one machine, and within rtol
1e-12 across machines (the README's reproducibility contract).  Channel
draws are shared across SNR points and across engines that draw in the
same order, which acts as common random numbers for gap and offset
measurements.  At each point an engine draws every trial's inputs from its
own stream, then forms channels, beams and rates for the whole stack of
trials at once.

Two quantized-CSIT paths are available: brute_force enumerates a fresh
random codebook per user per trial (integer B with M * 2^B <= 2^24;
non-integer B is rounded up), while fast_decomposition samples the error
statistic directly and is exact in distribution at any real B.  A stack
of large brute codebooks is split into contiguous runs of trials, one per
CPU the process may use, and each run draws, searches and evaluates its
trials in its own share (fbmimo.shares); a trial still draws only from
its own stream, so the result is bit-identical whatever the share count.
Everything else runs on the calling process.

A beamformer build that is numerically singular (numerics.invert) raises
SingularMatrixError, which names the curve and the SNR point; on the
channels the engines draw it has a probability of about 1e-22 per build.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (ScalingPolicy, ThroughputCurve, _ergodic_rate, random_bf_sum_rate,
                     unitary_sum_rate, zf_perfect_sum_rate)
from .errors import CapacityError, ConfigError, SingularMatrixError
from .numerics import RngStream, draw_rows, haar_unitary, sample_complex_gaussian
from .precoder import RZF, ZF, rzf_beamformers, zf_beamformers
from .quantizer import (_codebook_bits, expected_error, generate_codebook, quantize,
                        sample_quantized_pair)

BRUTE_FORCE = "brute_force"
FAST_DECOMPOSITION = "fast_decomposition"

DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42

_BLOCK = 1024  # trials drawn and evaluated as one stack
# Brute-path runs are sized by a codebook's M * 2^B complex entries.  A
# fork has a fixed cost, which small codebooks do not repay: on 2 CPUs,
# without this gate, the engine took about 105 -> 143 ms at M=2, B=2 (5
# points x 300 trials) and 30 -> 50 ms at M=4, B=4 (40 trials).  A
# codebook's draw and search peak at 34-40 bytes per entry, so 2^20 entries
# over all of a stack's processes hold about 40 MiB.  A brute curve inside
# a figure share splits its stacks again, so on 2 CPUs a brute figure can
# hold twice that.
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


def _resolve_bits(cfg: SimConfig, snr_db: float) -> float:
    """Feedback bits at this point: the policy's real-valued count, rounded
    up to a whole codebook on the brute path, NaN under perfect CSIT."""
    if cfg.policy is None:
        return math.nan
    B = cfg.policy.bits(snr_db, cfg.M)
    if cfg.path != BRUTE_FORCE:
        return B
    try:  # before any codebook is drawn
        return float(_codebook_bits(cfg.M, B))
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


def _workers(M: int, B: float, cpus: int) -> int:
    """Runs, each in its own share, that a stack of brute trials with
    codebooks of M * 2^B entries is split into.

    One below _SHARE_MIN_ENTRIES entries per codebook, where a fork costs
    more than it saves.  Above, one per CPU, but no more than keep the
    runs' codebooks within _SHARE_BUDGET_ENTRIES together.
    """
    entries = M << int(B)
    if entries < _SHARE_MIN_ENTRIES:
        return 1
    return max(1, min(cpus, _SHARE_BUDGET_ENTRIES // entries))


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


def _trials(n_trials: int, seed: int, draw, evaluate,
            workers: int = 1) -> tuple[np.ndarray, tuple]:
    """Per-trial rows and their controls' exact means over trials
    0..n_trials-1, drawn and evaluated as stacks of at most _BLOCK trials.
    Each stack is split into at most `workers` contiguous runs, and each
    run is drawn and evaluated in its own share (fbmimo.shares), the first
    on the calling process; a trial reads only its own stream, so the rows
    do not depend on the split.  evaluate returns (rows, means) for a run;
    the means depend on the point alone, so every run's are the same."""
    from .shares import run_in_shares  # here, so that importing fbmimo.cli never loads it
    values = []
    for start in range(0, n_trials, _BLOCK):
        gens = trial_streams(seed, start, min(start + _BLOCK, n_trials))
        runs = min(workers, len(gens))
        edges = [len(gens) * w // runs for w in range(runs + 1)]
        for rows, means in run_in_shares(
                lambda w: evaluate(*draw(gens[edges[w]:edges[w + 1]])),
                [[w] for w in range(runs)]):
            values.append(rows)
    return np.concatenate(values), means


# Each engine is a draw(gens, cfg, B) -> arrays with one row per trial and
# an evaluate(cfg, P, B, *arrays) -> (rows, means): (trials, 1 + k) rows of
# the rate and k control variates, each built beside its exact mean, or
# with k = 0 one rate per trial.  There are three draws: perfect CSIT (H),
# quantized CSIT (H, h_hat, ||h||^2, Z) and random beamforming (H and a
# Haar beam matrix).

def _perfect_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    """Channel rows H, (trials, K, M): the transmitter knows H itself."""
    return (sample_complex_gaussian(cfg.M, gens, size=cfg.K),)


def _quantized_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    """Channel rows H and quantized unit directions h_hat, (trials, K, M), and
    each user's ||h||^2 and error Z = sin^2(angle(h, h_hat)), (trials, K)."""
    M, K = cfg.M, cfg.K
    if cfg.path == BRUTE_FORCE:
        H = sample_complex_gaussian(M, gens, size=K)
        h_hat, z = np.empty((len(gens), K, M), complex), np.empty((len(gens), K))
        for t, gen in enumerate(gens):
            for i in range(K):
                h_hat[t, i], z[t, i] = quantize(H[t, i], generate_codebook(M, B, gen))
        return H, h_hat, _vdot_rows(H, H).real, z
    h_dir, h_hat, z = sample_quantized_pair(M, B, gens, size=K)
    mag2 = draw_rows(gens, lambda gen: gen.gamma(M, 1.0, size=K))
    return np.sqrt(mag2)[..., None] * h_dir, h_hat, mag2, z


def _beams(cfg: SimConfig, P: float, directions: np.ndarray) -> np.ndarray:
    """The configured precoder's beams for users along `directions`."""
    G = directions.conj()
    return zf_beamformers(G) if cfg.precoder == ZF else rzf_beamformers(G, P)


def _with_controls(rate: np.ndarray, controls: list) -> tuple:
    """An evaluate's (rows, means) from the rates and k (column, exact
    mean) pairs of its controls; with k = 0 the rows are the rates."""
    if not controls:
        return rate, ()
    columns, means = zip(*controls)
    return np.stack([rate, *columns], axis=-1), means


def _zf_control(cfg: SimConfig, P: float, H: np.ndarray) -> tuple:
    """R_zf, the perfect-CSIT ZF sum rates on H, and its mean."""
    return _sum_rate(H, zf_beamformers(H.conj()), P), zf_perfect_sum_rate(P, cfg.M)


def _gain_control(cfg: SimConfig, P: float, mag2: np.ndarray) -> tuple:
    """D = sum_i log2(1 + (P/M) ||h_i||^2), from each user's ||h_i||^2,
    and its mean K E[log2(1 + (P/M) Gamma(M, 1))]."""
    return (np.log2(1.0 + (P / cfg.M) * mag2).sum(axis=-1),
            cfg.K * _ergodic_rate(P / cfg.M, cfg.M))


def _mu_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray) -> tuple:
    """Perfect-CSIT sum rates; under RZF with the controls R_zf and D on
    the same H.  See mu_throughput."""
    rate = _sum_rate(H, _beams(cfg, P, H), P)
    return _with_controls(rate, [] if cfg.precoder == ZF else [
        _zf_control(cfg, P, H), _gain_control(cfg, P, _vdot_rows(H, H).real)])


def _zf_rate_and_interference(cfg: SimConfig, P: float, B: float, H: np.ndarray,
                              zf: np.ndarray) -> tuple:
    """Sum rates on the ZF beams zf of h_hat, and the control
    I = sum_i sum_{j != i} |h_i^H v_j|^2 with its mean K M E[Z], both from
    one table of gains.  Each user's interference sums its gains on the
    other beams: the row sum less the own gain, as _sinr_table forms it,
    loses the digits of an interference far below the own gain (large B),
    and a fit that I leaves with a tiny residual would carry that rounding
    into its std_err."""
    gains = np.abs(H.conj() @ zf) ** 2
    cross = np.where(np.eye(cfg.K, dtype=bool), 0.0, gains).sum(axis=-1)
    per_stream = P / cfg.K
    sinr = per_stream * np.diagonal(gains, axis1=-2, axis2=-1) / (1.0 + per_stream * cross)
    return (np.log2(1.0 + sinr).sum(axis=-1),
            (cross.sum(axis=-1), cfg.K * cfg.M * expected_error(cfg.M, B)))


def _quantized_arm(cfg: SimConfig, P: float, B: float, H: np.ndarray, h_hat: np.ndarray,
                   mag2: np.ndarray, z: np.ndarray) -> tuple:
    """Quantized-CSIT sum rates; as (column, exact mean) pairs, the
    controls S, where B > 0 C1' on the ZF beams of h_hat, else the rate on
    the polar factor of the rate's beams, and D; and under ZF the control I
    from the rate's own gains, else None.  See mu_throughput."""
    G = h_hat.conj()
    zf = zf_beamformers(G) if cfg.precoder == ZF or B > 0 else None
    beams = zf if cfg.precoder == ZF else rzf_beamformers(G, P)
    if B > 0:
        gain = _vdot_rows(h_hat, np.swapaxes(zf, -1, -2))
        second = (np.log2(1.0 + (P / cfg.M) * mag2 * (gain.real * gain.real
                                                       + gain.imag * gain.imag)).sum(axis=-1),
                  zf_perfect_sum_rate(P, cfg.M))
    else:
        second = _sum_rate(H, _nearest_unitary(beams), P), unitary_sum_rate(P, cfg.M)
    if cfg.precoder == ZF:
        rate, interference = _zf_rate_and_interference(cfg, P, B, H, zf)
    else:
        rate, interference = _sum_rate(H, beams, P), None
    return rate, [(z.sum(axis=-1), cfg.K * expected_error(cfg.M, B)),
                  second, _gain_control(cfg, P, mag2)], interference


def _quantized_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray, h_hat: np.ndarray,
                     mag2: np.ndarray, z: np.ndarray) -> tuple:
    """Quantized-CSIT sum rates with the controls S, C1' or the polar
    rate, D and, under ZF, R_zf and I.  See mu_throughput."""
    rate, controls, interference = _quantized_arm(cfg, P, B, H, h_hat, mag2, z)
    if cfg.precoder == ZF:
        controls += [_zf_control(cfg, P, H), interference]
    return _with_controls(rate, controls)


def _gap_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray, h_hat: np.ndarray,
               mag2: np.ndarray, z: np.ndarray) -> tuple:
    """Per-user perfect-CSIT minus quantized sum rate on one shared channel
    draw, with the controls R_perf under ZF, where the perfect arm is R_zf,
    then the quantized arm's S, C1' or polar rate, and D, and under ZF I."""
    rate, controls, interference = _quantized_arm(cfg, P, B, H, h_hat, mag2, z)
    if cfg.precoder == ZF:
        controls = [_zf_control(cfg, P, H), *controls, interference]
        perfect = controls[0][0]
    else:
        perfect = _sum_rate(H, _beams(cfg, P, H), P)
    return _with_controls((perfect - rate) / cfg.M, controls)


def _miso_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray, h_hat: np.ndarray,
                mag2: np.ndarray, z: np.ndarray) -> tuple:
    """The one user's rate on a beam along its quantized direction, with
    the control log2(1 + P ||h||^2), the rate on a beam along h itself,
    whose exact mean is bounds.miso_reference(P, M, B).c_csit."""
    return _with_controls(np.log2(1.0 + P * mag2[:, 0] * (1.0 - z[:, 0])),
                          [(np.log2(1.0 + P * mag2[:, 0]), _ergodic_rate(P, cfg.M))])


def _tdma_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray) -> tuple:
    best = np.max(np.sum(np.abs(H) ** 2, axis=-1), axis=-1)
    return np.log2(1.0 + P * best), ()


def _random_bf_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    return sample_complex_gaussian(cfg.M, gens, size=cfg.K), haar_unitary(cfg.M, gens)


def _random_bf_rates(cfg: SimConfig, P: float, B: float, H: np.ndarray,
                     beams: np.ndarray) -> tuple:
    """Random-beamforming sum rates with, where its mean is trusted, the
    control R: the sum over beams of log2(1 + the beam's best SINR) on the
    same draw, where a user may be best on several beams.  See
    random_bf_throughput."""
    sinr_table = _sinr_table(H, beams, P)
    best_beam = np.argmax(sinr_table, axis=-1)
    best_val = np.take_along_axis(sinr_table, best_beam[..., None], axis=-1)
    # each beam's highest claim; an unclaimed beam adds log2(1 + 0) = 0
    claims = np.where(best_beam[..., None] == np.arange(cfg.M), best_val, 0.0).max(axis=-2)
    rates = np.log2(1.0 + claims).sum(axis=-1)
    mean = random_bf_sum_rate(P, cfg.M, cfg.K) if cfg.M > 1 else None
    return _with_controls(rates, [] if mean is None else [
        (np.log2(1.0 + sinr_table.max(axis=-2)).sum(axis=-1), mean)])


def _regression_estimate(rates: np.ndarray, controls: np.ndarray,
                         control_means: tuple) -> tuple[float, float]:
    """Control-variate estimate of the mean of `rates`, and its std_err.

    controls holds one row per control variate and control_means their
    exact means; a row that is constant is dropped.  The estimate is
    mean(rates) - beta . (mean(controls) - control_means), with beta the
    minimum-norm least-squares fit of the centred rates on the centred
    controls, and the std_err is the residuals' standard deviation on
    n - 1 - k degrees of freedom over sqrt(n), k the controls' rank
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2004,
    section 4.1).  The fit is by SVD, which keeps its digits where
    controls nearly agree (C1' and R_zf at large B), so its residuals
    never exceed the centred rates.  With no control left or fewer than
    k + 2 trials, the plain mean and std_err.
    """
    n = len(rates)
    bars = controls.mean(axis=-1)
    dc = controls - bars[:, None]
    scale = np.sqrt((dc * dc).sum(axis=-1))
    varies = scale > 0.0
    k = int(varies.sum())
    if k == 0 or n < k + 2:
        return float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    rate_bar = float(rates.mean())
    dy = rates - rate_bar
    # unit-norm columns keep the fit well scaled when one control is far
    # smaller than another (S is ~1e-17 at large B)
    design = dc[varies] / scale[varies, None]
    beta, _, rank, _ = np.linalg.lstsq(design.T, dy, rcond=None)
    k = int(rank)  # an int32, in which (n - 1 - k) * n overflows from n ~ 46,341
    residual = dy - beta @ design
    shift = (bars - np.array(control_means, dtype=float))[varies] / scale[varies]
    return (rate_bar - float(beta @ shift),
            math.sqrt(float((residual * residual).sum()) / ((n - 1 - k) * n)))


def _curve(cfg: SimConfig, label: str, draw, evaluate, policy: str | None = None,
           precoder: str | None = None) -> ThroughputCurve:
    """Sweep the SNR grid and average the engine's per-trial rates.

    Every point's bits are resolved before the first draw, so a grid with
    a point the path cannot take fails before any is computed.  A singular
    build raises SingularMatrixError naming the curve and the point.  A
    point whose mean or std_err is not finite raises ConfigError, in place
    of numpy's overflow, invalid-value and divide-by-zero warnings.
    evaluate returns the rows of rate and k controls at power P and
    resolved bits B, and the controls' exact means; each point reports the
    regression estimate on them, or with k = 0 the plain mean.
    """
    bits = grid_bits(cfg)
    brute = cfg.policy is not None and cfg.path == BRUTE_FORCE  # the draw searches codebooks
    means, errs = [], []
    for snr_db, B in zip(cfg.snr_grid_db, bits):
        P = 10.0 ** (snr_db / 10.0)
        workers = _workers(cfg.M, B, _cpus()) if brute else 1
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                values, control_means = _trials(
                    cfg.trials, cfg.seed, lambda gens: draw(gens, cfg, B),
                    lambda *arrays: evaluate(cfg, P, B, *arrays), workers)
            except SingularMatrixError as err:
                raise SingularMatrixError(f"{label} at SNR {snr_db} dB: {err}") from None
            # each column contiguous, so its sums run in one order for every k
            columns = np.ascontiguousarray(values.reshape(cfg.trials, -1).T)
            mean, err = _regression_estimate(columns[0], columns[1:], control_means)
        if not (math.isfinite(mean) and math.isfinite(err)):
            raise ConfigError(f"{label} is not finite at SNR {snr_db} dB: "
                              "a rate or beam is not finite")
        means.append(mean)
        errs.append(err)
    if policy is None:
        policy = "perfect" if cfg.policy is None else cfg.policy.describe()
    return ThroughputCurve(
        label=label, snr_db=np.array(cfg.snr_grid_db), mean_bps_hz=np.array(means),
        std_err=np.array(errs), trials=np.full(len(cfg.snr_grid_db), cfg.trials),
        M=cfg.M, K=cfg.K, policy=policy, precoder=precoder or cfg.precoder, seed=cfg.seed,
        b_bits=np.array(bits))


def _require_square(cfg: SimConfig) -> None:
    if cfg.K != cfg.M:
        raise ConfigError(f"multiuser engine requires K == M, got K={cfg.K}, M={cfg.M}")


def mu_throughput(cfg: SimConfig, label: str | None = None) -> ThroughputCurve:
    """Sum throughput M * E[log2(1 + SINR)] for the M-antenna, K=M-user
    downlink under the configured precoder and CSIT model.

    Quantized-CSIT points are control-variate (regression) estimates on
    controls computed on each trial's own draw, all with exact means:
    S, C1' or the polar rate, D and, under ZF, R_zf and I.  S = sum_i Z_i, the
    users' quantization errors as drawn, has mean
    K * quantizer.expected_error(M, B) at the point's resolved bits B (on
    the brute path, B rounded up), since both paths draw each Z_i from the
    random-codebook law.  The second control depends on B:

    - B > 0: C1' = sum_i log2(1 + (P/M) ||h_i||^2 |h_hat_i^H v_i|^2) on the
      ZF beams v_i of the quantized directions.  The h_hat_i are iid
      isotropic (drawn so on the fast path; on the brute path the random
      codebook is unitarily invariant), independent of every ||h_j||^2,
      and ZF beams depend only on row directions, so C1' has the law of the
      perfect-CSIT ZF sum rate, with mean bounds.zf_perfect_sum_rate(P, M).
      For ZF these are the rate's own beams; RZF builds them too.
    - B = 0: the sum rate on Q = U V^H, the unitary nearest the rate's own
      beam matrix U S V^H.  A one-word codebook carries no information, so
      on both paths Q is independent of H, each user's gain on its own
      column is Exp(1) and on the others Gamma(M - 1, 1), independently;
      the mean is bounds.unitary_sum_rate(P, M).

    D = sum_i log2(1 + (P/M) ||h_i||^2) reads only the drawn channel gains,
    each Gamma(M, 1), so its mean is K E[log2(1 + (P/M) Gamma(M, 1))].
    R_zf, the perfect-CSIT ZF sum rate on the trial's own H, has mean
    bounds.zf_perfect_sum_rate(P, M).  RZF points go without R_zf, which
    would cost a ZF build of H for little (1.0-1.25x).

    I = sum_i sum_{j != i} |h_i^H v_j|^2, under ZF, is the interference
    each user meets on the other users' ZF beams, read from the gains the
    rate is computed from.  With h_i = ||h_i|| (sqrt(1 - Z_i) h_hat_i +
    sqrt(Z_i) e_i), e_i the unit error direction in the nullspace of
    h_hat_i, and v_j orthogonal to h_hat_i with ||v_j|| = 1 for j != i,
    each term is ||h_i||^2 Z_i |e_i^H v_j|^2.  e_i is isotropic in that
    (M - 1)-dimensional nullspace (on the brute path because the codebook
    is unitarily invariant about h_hat_i) and independent of
    ||h_i||^2 ~ Gamma(M, 1), of Z_i and of the other users' beams, so each
    term has mean M E[Z] / (M - 1) and I has mean K M E[Z].  Its mean is
    the interference to which bounds.rate_gap_bound applies Jensen's
    inequality.  RZF points go without it: their beams are not orthogonal
    to h_hat_i, so the sum on them has no known mean, and the sum on the
    ZF beams of h_hat, which RZF builds for C1', cut the variance only
    1.00-1.01x (M = 8, B = 20, 10 and 20 dB).

    Perfect-CSIT ZF points are plain means; perfect-CSIT RZF points use
    R_zf and D.
    """
    _require_square(cfg)
    if cfg.policy is None:
        return _curve(cfg, label or f"{cfg.precoder.lower()}_perfect", _perfect_draw, _mu_rates)
    return _curve(cfg, label or f"{cfg.precoder.lower()}_quantized", _quantized_draw,
                  _quantized_rates)


def rate_gap(cfg: SimConfig, label: str = "rate_gap") -> ThroughputCurve:
    """Per-user throughput loss (R_perfect - R_quantized)/M versus SNR.

    Both arms of every trial share one channel and quantization draw
    (common random numbers), so the gap estimate is far less noisy than
    differencing two independent sweeps.  Points are control-variate
    (regression) estimates on the quantized arm's S, C1' or polar rate and
    D and, under ZF, its interference I (see mu_throughput) and the perfect
    arm R_perf itself, with mean bounds.zf_perfect_sum_rate(P, M); the RZF
    perfect arm has no exact mean and is no control.
    """
    _require_square(cfg)
    if cfg.policy is None:
        raise ConfigError("rate_gap compares quantized with perfect CSIT; give a feedback policy")
    return _curve(cfg, label, _quantized_draw, _gap_rates)


def miso_feedback_throughput(cfg: SimConfig, label: str = "miso_fb_quantized") -> ThroughputCurve:
    """Single-user beamforming rate E[log2(1 + P ||h||^2 cos^2(angle))]
    when the transmitter steers along the quantized direction.

    Points are control-variate (regression) estimates on the perfect-CSIT
    beamforming rate log2(1 + P ||h||^2) of the same draw, whose mean is
    bounds.miso_reference(P, M, B).c_csit."""
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
                  policy="random_bf/max-sinr-claim", precoder="BF")


def collect_zf_statistics(M: int, B: float, n_trials: int, seed: int,
                          path: str = BRUTE_FORCE) -> dict:
    """Per-trial quantized-ZF statistics for distributional checks.

    Runs the full K=M pipeline and records, per trial, the direction
    signal gain |h_dir_0^H v_0|^2, one cross gain |h_dir_1^H v_0|^2, and
    user 1's quantization error Z as drawn.
    """
    B = _codebook_bits(M, B) if path == BRUTE_FORCE else float(B)
    cfg = SimConfig(M=M, K=M, snr_grid_db=(0.0,), path=path)  # a draw reads M, K and path

    def statistics(H, h_hat, mag2, z):
        v0 = zf_beamformers(h_hat.conj())[..., 0]
        dirs = H / np.linalg.norm(H, axis=-1, keepdims=True)
        return np.stack([np.abs(_vdot_rows(dirs[:, 0], v0)) ** 2,
                         np.abs(_vdot_rows(dirs[:, 1], v0)) ** 2, z[:, 1]], axis=-1), ()

    vals, _ = _trials(n_trials, seed, lambda gens: _quantized_draw(gens, cfg, B),
                      statistics, _workers(M, B, _cpus()) if path == BRUTE_FORCE else 1)
    return {
        "signal": vals[:, 0],
        "interference": vals[:, 1],
        "error_z": vals[:, 2],
    }
