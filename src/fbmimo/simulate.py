"""Monte Carlo throughput engines.

Every engine sweeps an SNR grid and averages per-trial sum rates.  Trial t
draws all of its randomness from RngStream(seed, t), so results are
bit-identical for a given (config, seed) no matter how many worker threads
run (FBMIMO_THREADS caps the pool) and channel draws are shared across SNR
points and across engines that draw in the same order, which acts as
common random numbers for gap and offset measurements.

Two quantized-CSIT paths are available: brute_force enumerates a fresh
random codebook per user per trial (integer B <= 30, non-integer B is
rounded up), while fast_decomposition samples the error statistic directly
and is exact in distribution at any real B.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import ScalingPolicy, ThroughputCurve
from .errors import CapacityError, ConfigError, SingularMatrixError
from .numerics import RngStream, haar_unitary, sample_complex_gaussian
from .precoder import RZF, ZF, rzf_beamformers, zf_beamformers
from .quantizer import (MAX_CODEBOOK_BITS, generate_codebook, quantize,
                        sample_quantized_pair)

BRUTE_FORCE = "brute_force"
FAST_DECOMPOSITION = "fast_decomposition"

DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42
DEFAULT_SNR_GRID_DB = tuple(float(x) for x in range(0, 45, 5))

_MAX_RESAMPLES = 1000


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


def _worker_count() -> int:
    n = min(os.cpu_count() or 1, 8)
    cap = os.environ.get("FBMIMO_THREADS", "")
    if cap:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            pass
    return n


def map_trials(n_trials: int, seed: int, width: int, fn) -> np.ndarray:
    """Evaluate fn(generator) -> width floats for each trial slot.

    Slot t always uses RngStream(seed, t), and slots write into disjoint
    rows of a preallocated array, so the result is independent of the
    worker count and of scheduling order.
    """
    out = np.empty((n_trials, width))

    def fill(lo: int, hi: int) -> None:
        for t in range(lo, hi):
            out[t] = fn(RngStream(seed, t).generator())

    workers = _worker_count()
    if workers <= 1 or n_trials < 256:
        fill(0, n_trials)
        return out
    chunk = math.ceil(n_trials / workers)
    bounds = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda ab: fill(*ab), bounds))
    return out


def _resolve_bits(cfg: SimConfig, snr_db: float) -> tuple[float, int | None]:
    """Real-valued bits at this point, plus the integer count for brute force."""
    if cfg.csit == "perfect":
        return math.nan, None
    b_real = cfg.policy.bits(snr_db, cfg.M)
    if cfg.path != BRUTE_FORCE:
        return b_real, None
    b_int = int(math.ceil(b_real - 1e-9))
    if b_int > MAX_CODEBOOK_BITS:
        raise CapacityError(
            f"brute_force needs B <= {MAX_CODEBOOK_BITS}, policy asks for {b_real:.2f} "
            f"bits at {snr_db} dB; use the fast_decomposition path")
    return float(b_int), b_int


def _draw_quantized(gen: np.random.Generator, M: int, K: int, b_int: int | None,
                    b_real: float, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Channel rows H (K, M) and quantized unit directions (K, M)."""
    if path == BRUTE_FORCE:
        H = sample_complex_gaussian(M, gen, size=K)
        h_hat = np.empty((K, M), dtype=complex)
        for i in range(K):
            cb = generate_codebook(M, b_int, gen)
            h_hat[i] = quantize(H[i], cb).h_hat
        return H, h_hat
    h_dir, h_hat, z = sample_quantized_pair(M, b_real, gen, size=K)
    mag2 = gen.gamma(M, 1.0, size=K)
    return np.sqrt(mag2)[:, None] * h_dir, h_hat


def _beamformers(G_rows: np.ndarray, precoder: str, P: float, source: str):
    if precoder == ZF:
        return zf_beamformers(G_rows, source=source)
    return rzf_beamformers(G_rows, P, source=source)


def _sum_rate(H: np.ndarray, vectors: np.ndarray, P: float) -> float:
    gains = np.abs(H.conj() @ vectors) ** 2
    per_stream = P / vectors.shape[1]
    signal = per_stream * np.diagonal(gains)
    interference = per_stream * (gains.sum(axis=1) - np.diagonal(gains))
    return float(np.log2(1.0 + signal / (1.0 + interference)).sum())


def _resampled(attempt) -> tuple:
    """Call attempt() until it stops raising SingularMatrixError.

    Each call draws afresh from the trial's stream.  Returns the result
    and the number of discarded draws.
    """
    for discarded in range(_MAX_RESAMPLES):
        try:
            return attempt(), discarded
        except SingularMatrixError:
            pass
    raise RuntimeError(f"exceeded {_MAX_RESAMPLES} singular-channel resamples in one trial")


def _mu_trial(gen, cfg: SimConfig, P: float, b_real: float, b_int: int | None) -> float:
    if cfg.csit == "perfect":
        H = sample_complex_gaussian(cfg.M, gen, size=cfg.K)
        G = H.conj()
    else:
        H, h_hat = _draw_quantized(gen, cfg.M, cfg.K, b_int, b_real, cfg.path)
        G = h_hat.conj()
    return _sum_rate(H, _beamformers(G, cfg.precoder, P, cfg.csit).vectors, P)


def _gap_trial(gen, cfg: SimConfig, P: float, b_real: float, b_int: int | None) -> float:
    """Per-user perfect-CSIT minus quantized sum rate on one shared channel draw."""
    H, h_hat = _draw_quantized(gen, cfg.M, cfg.K, b_int, b_real, cfg.path)
    bf_perfect = _beamformers(H.conj(), cfg.precoder, P, "perfect_csit")
    bf_fb = _beamformers(h_hat.conj(), cfg.precoder, P, "quantized")
    return (_sum_rate(H, bf_perfect.vectors, P) - _sum_rate(H, bf_fb.vectors, P)) / cfg.M


def _miso_trial(gen, cfg: SimConfig, P: float, b_real: float, b_int: int | None) -> float:
    if cfg.path == BRUTE_FORCE:
        h = sample_complex_gaussian(cfg.M, gen)
        cb = generate_codebook(cfg.M, b_int, gen)
        z = quantize(h, cb).error_z
        mag2 = float(np.real(np.vdot(h, h)))
    else:
        z = sample_quantized_pair(cfg.M, b_real, gen)[2]
        mag2 = float(gen.gamma(cfg.M, 1.0))
    return math.log2(1.0 + P * mag2 * (1.0 - z))


def _tdma_trial(gen, cfg: SimConfig, P: float, b_real: float, b_int: int | None) -> float:
    H = sample_complex_gaussian(cfg.M, gen, size=cfg.K)
    best = float(np.max(np.sum(np.abs(H) ** 2, axis=1)))
    return math.log2(1.0 + P * best)


def _random_bf_trial(gen, cfg: SimConfig, P: float, b_real: float, b_int: int | None) -> float:
    H = sample_complex_gaussian(cfg.M, gen, size=cfg.K)
    beams = haar_unitary(cfg.M, gen)
    gains = np.abs(H.conj() @ beams) ** 2
    per_stream = P / cfg.M
    sig = per_stream * gains
    denom = 1.0 + per_stream * (gains.sum(axis=1, keepdims=True) - gains)
    sinr_table = sig / denom
    best_beam = np.argmax(sinr_table, axis=1)
    best_val = sinr_table[np.arange(cfg.K), best_beam]
    rate = 0.0
    for m in range(cfg.M):
        claim = best_val[best_beam == m]
        if claim.size:
            rate += math.log2(1.0 + float(claim.max()))
    return rate


def _curve(cfg: SimConfig, label: str, trial, policy: str | None = None,
           precoder: str | None = None, feedback: bool = True) -> ThroughputCurve:
    """Sweep the SNR grid and average trial(gen, cfg, P, b_real, b_int).

    Every trial retries its draw while the beamformer build is singular and
    the discarded draws are counted per point.  Curves with feedback=False
    (the baselines) never resolve feedback bits, so they need no policy.
    """
    means, errs, bits, resamples = [], [], [], []
    for snr_db in cfg.snr_grid_db:
        P = 10.0 ** (snr_db / 10.0)
        b_real, b_int = _resolve_bits(cfg, snr_db) if feedback else (math.nan, None)
        vals = map_trials(cfg.trials, cfg.seed, 2,
                          lambda gen: _resampled(lambda: trial(gen, cfg, P, b_real, b_int)))
        rates = vals[:, 0]
        means.append(float(rates.mean()))
        errs.append(float(rates.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0)
        bits.append(b_real)
        resamples.append(int(vals[:, 1].sum()))
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
    return _curve(cfg, label or f"{cfg.precoder.lower()}_{cfg.csit}", _mu_trial)


def rate_gap(cfg: SimConfig, label: str = "rate_gap") -> ThroughputCurve:
    """Per-user throughput loss (R_perfect - R_quantized)/M versus SNR.

    Both arms of every trial share one channel and quantization draw
    (common random numbers), so the gap estimate is far less noisy than
    differencing two independent sweeps.
    """
    _require_square(cfg)
    if cfg.csit != "quantized":
        raise ConfigError("rate_gap compares against perfect CSIT; set csit='quantized'")
    return _curve(cfg, label, _gap_trial)


def miso_feedback_throughput(cfg: SimConfig, label: str = "miso_fb_quantized") -> ThroughputCurve:
    """Single-user beamforming rate E[log2(1 + P ||h||^2 cos^2(angle))]
    when the transmitter steers along the quantized direction."""
    if cfg.K != 1:
        raise ConfigError(f"miso engine requires K == 1, got K={cfg.K}")
    if cfg.csit != "quantized":
        raise ConfigError("miso engine models quantized feedback; set csit='quantized'")
    return _curve(cfg, label, _miso_trial, precoder="BF")


def tdma_throughput(cfg: SimConfig, label: str = "tdma") -> ThroughputCurve:
    """Serve only the instantaneously strongest of K users with full-power
    perfect-CSIT beamforming: log2(1 + P max_i ||h_i||^2)."""
    return _curve(cfg, label, _tdma_trial, policy="tdma", precoder="BF", feedback=False)


def random_bf_throughput(cfg: SimConfig, label: str = "random_bf") -> ThroughputCurve:
    """M random orthonormal beams; each user reports its best beam's SINR,
    each beam goes to the highest reporter, unclaimed beams send nothing."""
    if cfg.K < cfg.M:
        raise ConfigError(f"random beamforming requires K >= M, got K={cfg.K}, M={cfg.M}")
    return _curve(cfg, label, _random_bf_trial, policy="random_bf/max-sinr-claim",
                  precoder="BF", feedback=False)


def collect_zf_statistics(M: int, B: float, n_trials: int, seed: int,
                          path: str = BRUTE_FORCE) -> dict:
    """Per-trial quantized-ZF statistics for distributional checks.

    Runs the full K=M pipeline and records, per trial, the direction
    signal gain |h_dir_0^H v_0|^2, one cross gain |h_dir_1^H v_0|^2, and
    user 1's quantization error, plus the singular-resample count.
    """
    b_int = int(math.ceil(B - 1e-9)) if path == BRUTE_FORCE else None

    def trial(gen):
        def attempt():
            H, h_hat = _draw_quantized(gen, M, M, b_int, float(B), path)
            return H, h_hat, zf_beamformers(h_hat.conj())

        (H, h_hat, bf), resamples = _resampled(attempt)
        dirs = H / np.linalg.norm(H, axis=1, keepdims=True)
        signal = abs(np.vdot(dirs[0], bf.vectors[:, 0])) ** 2
        cross = abs(np.vdot(dirs[1], bf.vectors[:, 0])) ** 2
        z1 = 1.0 - abs(np.vdot(dirs[1], h_hat[1])) ** 2
        return signal, cross, min(max(z1, 0.0), 1.0), float(resamples)

    vals = map_trials(n_trials, seed, 4, trial)
    return {
        "signal": vals[:, 0],
        "interference": vals[:, 1],
        "error_z": vals[:, 2],
        "resamples": int(vals[:, 3].sum()),
    }
