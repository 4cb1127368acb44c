"""Monte Carlo throughput engines.

Every engine sweeps an SNR grid and averages per-trial sum rates.  Trial t
draws all of its randomness from RngStream(seed, t), so results are
bit-identical for a given (config, seed), and channel draws are shared
across SNR points and across engines that draw in the same order, which
acts as common random numbers for gap and offset measurements.  At each
point an engine draws every trial's inputs from its own stream, then forms
channels, beams and rates for the whole stack of trials at once.

Two quantized-CSIT paths are available: brute_force enumerates a fresh
random codebook per user per trial (integer B <= 30, non-integer B is
rounded up), while fast_decomposition samples the error statistic directly
and is exact in distribution at any real B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ScalingPolicy, ThroughputCurve
from .errors import CapacityError, ConfigError, ResampleLimitError, SingularMatrixError
from .numerics import RngStream, draw_rows, haar_unitary, sample_complex_gaussian
from .precoder import RZF, ZF, rzf_beamformers, zf_beamformers
from .quantizer import (MAX_CODEBOOK_BITS, generate_codebook, quantize,
                        sample_quantized_pair)

BRUTE_FORCE = "brute_force"
FAST_DECOMPOSITION = "fast_decomposition"

DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42
DEFAULT_SNR_GRID_DB = tuple(float(x) for x in range(0, 45, 5))

_MAX_RESAMPLES = 1000
_BLOCK = 1024  # trials drawn and evaluated as one stack


@dataclass(frozen=True)
class SimConfig:
    M: int
    K: int
    snr_grid_db: tuple
    policy: ScalingPolicy | None = None
    precoder: str = ZF
    csit: str = "quantized"
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
        if self.csit not in ("perfect", "quantized"):
            raise ConfigError(f"csit must be 'perfect' or 'quantized', got {self.csit!r}")
        if self.path not in (BRUTE_FORCE, FAST_DECOMPOSITION):
            raise ConfigError(f"path must be brute_force or fast_decomposition, got {self.path!r}")
        if self.csit == "quantized" and self.policy is None:
            raise ConfigError("csit='quantized' requires a feedback policy")
        grid = tuple(float(x) for x in self.snr_grid_db)
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
    if cfg.csit == "perfect":
        return math.nan
    B = cfg.policy.bits(snr_db, cfg.M)
    if cfg.path == BRUTE_FORCE and _codebook_bits(B) > MAX_CODEBOOK_BITS:
        raise CapacityError(
            f"brute_force needs B <= {MAX_CODEBOOK_BITS}, policy asks for {B:.2f} "
            f"bits at {snr_db} dB; use the fast_decomposition path")
    return _codebook_bits(B) if cfg.path == BRUTE_FORCE else B


def _draw_quantized(gens: list, M: int, K: int, B: float,
                    path: str) -> tuple[np.ndarray, np.ndarray]:
    """Channel rows H and quantized unit directions, both (trials, K, M)."""
    if path == BRUTE_FORCE:
        H = sample_complex_gaussian(M, gens, size=K)
        h_hat = np.empty_like(H)
        for gen, h, row in zip(gens, H, h_hat):
            for i in range(K):
                row[i] = quantize(h[i], generate_codebook(M, B, gen)).h_hat
        return H, h_hat
    h_dir, h_hat, _ = sample_quantized_pair(M, B, gens, size=K)
    mag2 = draw_rows(gens, lambda gen: gen.gamma(M, 1.0, size=K))
    return np.sqrt(mag2)[..., None] * h_dir, h_hat


def _beamformers(G_rows: np.ndarray, precoder: str, P: float) -> np.ndarray:
    if precoder == ZF:
        return zf_beamformers(G_rows)
    return rzf_beamformers(G_rows, P)


def _sum_rate(H: np.ndarray, vectors: np.ndarray, P: float) -> np.ndarray:
    """Per-trial sum rates for channel stacks (..., K, M) and beams (..., M, K)."""
    gains = np.abs(H.conj() @ vectors) ** 2
    per_stream = P / vectors.shape[-1]
    diagonal = np.diagonal(gains, axis1=-2, axis2=-1)
    signal = per_stream * diagonal
    interference = per_stream * (gains.sum(axis=-1) - diagonal)
    return np.log2(1.0 + signal / (1.0 + interference)).sum(axis=-1)


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
    if cfg.csit == "perfect":
        H = sample_complex_gaussian(cfg.M, gens, size=cfg.K)
        return H, H
    return _draw_quantized(gens, cfg.M, cfg.K, B, cfg.path)


def _mu_rates(cfg: SimConfig, P: float, H: np.ndarray, directions: np.ndarray) -> np.ndarray:
    return _sum_rate(H, _beamformers(directions.conj(), cfg.precoder, P), P)


def _gap_rates(cfg: SimConfig, P: float, H: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """Per-user perfect-CSIT minus quantized sum rate on one shared channel draw."""
    beams_perfect = _beamformers(H.conj(), cfg.precoder, P)
    beams_fb = _beamformers(h_hat.conj(), cfg.precoder, P)
    return (_sum_rate(H, beams_perfect, P) - _sum_rate(H, beams_fb, P)) / cfg.M


def _miso_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    """Channel power ||h||^2 and quantization error Z per trial."""
    if cfg.path == BRUTE_FORCE:
        h = sample_complex_gaussian(cfg.M, gens)
        mag2, z = np.empty(len(gens)), np.empty(len(gens))
        for t, gen in enumerate(gens):
            z[t] = quantize(h[t], generate_codebook(cfg.M, B, gen)).error_z
            mag2[t] = np.real(np.vdot(h[t], h[t]))
        return mag2, z
    z = sample_quantized_pair(cfg.M, B, gens)[2]
    return draw_rows(gens, lambda gen: gen.gamma(cfg.M, 1.0)), z


def _miso_rates(cfg: SimConfig, P: float, mag2: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _log2(1.0 + P * mag2 * (1.0 - z))


def _channels_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    return (sample_complex_gaussian(cfg.M, gens, size=cfg.K),)


def _tdma_rates(cfg: SimConfig, P: float, H: np.ndarray) -> np.ndarray:
    best = np.max(np.sum(np.abs(H) ** 2, axis=-1), axis=-1)
    return _log2(1.0 + P * best)


def _random_bf_draw(gens: list, cfg: SimConfig, B: float) -> tuple:
    return sample_complex_gaussian(cfg.M, gens, size=cfg.K), haar_unitary(cfg.M, gens)


def _random_bf_rates(cfg: SimConfig, P: float, H: np.ndarray, beams: np.ndarray) -> np.ndarray:
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
    return np.add.accumulate(_log2(1.0 + claims), axis=-1)[..., -1]


def _curve(cfg: SimConfig, label: str, draw, evaluate, policy: str | None = None,
           precoder: str | None = None, feedback: bool = True) -> ThroughputCurve:
    """Sweep the SNR grid and average the engine's per-trial rates.

    Every trial retries its draw while the beamformer build is singular and
    the discarded draws are counted per point.  Curves with feedback=False
    (the baselines) never resolve feedback bits, so they need no policy.
    """
    means, errs, bits, resamples = [], [], [], []
    for snr_db in cfg.snr_grid_db:
        P = 10.0 ** (snr_db / 10.0)
        B = _resolve_bits(cfg, snr_db) if feedback else math.nan
        rates, discarded = _trials(cfg.trials, cfg.seed, lambda gens: draw(gens, cfg, B),
                                   lambda *arrays: evaluate(cfg, P, *arrays))
        means.append(float(rates.mean()))
        errs.append(float(rates.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0)
        bits.append(B)
        resamples.append(discarded)
    if policy is None:
        policy = "perfect" if cfg.csit == "perfect" else cfg.policy.describe()
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
    downlink under the configured precoder and CSIT model."""
    _require_square(cfg)
    return _curve(cfg, label or f"{cfg.precoder.lower()}_{cfg.csit}", _mu_draw, _mu_rates)


def rate_gap(cfg: SimConfig, label: str = "rate_gap") -> ThroughputCurve:
    """Per-user throughput loss (R_perfect - R_quantized)/M versus SNR.

    Both arms of every trial share one channel and quantization draw
    (common random numbers), so the gap estimate is far less noisy than
    differencing two independent sweeps.
    """
    _require_square(cfg)
    if cfg.csit != "quantized":
        raise ConfigError("rate_gap compares against perfect CSIT; set csit='quantized'")
    return _curve(cfg, label, _mu_draw, _gap_rates)


def miso_feedback_throughput(cfg: SimConfig, label: str = "miso_fb_quantized") -> ThroughputCurve:
    """Single-user beamforming rate E[log2(1 + P ||h||^2 cos^2(angle))]
    when the transmitter steers along the quantized direction."""
    if cfg.K != 1:
        raise ConfigError(f"miso engine requires K == 1, got K={cfg.K}")
    if cfg.csit != "quantized":
        raise ConfigError("miso engine models quantized feedback; set csit='quantized'")
    return _curve(cfg, label, _miso_draw, _miso_rates, precoder="BF")


def tdma_throughput(cfg: SimConfig, label: str = "tdma") -> ThroughputCurve:
    """Serve only the instantaneously strongest of K users with full-power
    perfect-CSIT beamforming: log2(1 + P max_i ||h_i||^2)."""
    return _curve(cfg, label, _channels_draw, _tdma_rates, policy="tdma", precoder="BF",
                  feedback=False)


def random_bf_throughput(cfg: SimConfig, label: str = "random_bf") -> ThroughputCurve:
    """M random orthonormal beams; each user reports its best beam's SINR,
    each beam goes to the highest reporter, unclaimed beams send nothing."""
    if cfg.K < cfg.M:
        raise ConfigError(f"random beamforming requires K >= M, got K={cfg.K}, M={cfg.M}")
    return _curve(cfg, label, _random_bf_draw, _random_bf_rates,
                  policy="random_bf/max-sinr-claim", precoder="BF", feedback=False)


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

    vals, resamples = _trials(n_trials, seed, lambda gens: _draw_quantized(gens, M, M, B, path),
                              statistics)
    return {
        "signal": vals[:, 0],
        "interference": vals[:, 1],
        "error_z": vals[:, 2],
        "resamples": resamples,
    }
