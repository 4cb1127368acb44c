"""Closed-form throughput bounds, feedback scaling laws, and curve analysis.

Everything here is analytic, vectorized where convenient, and cheap enough
to run inside tests.  Monte Carlo engines (simulate module) produce
ThroughputCurve objects that the analysis helpers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientDataError
from .numerics import LOG2E, LOG2_10
from .quantizer import expected_neg_log2_error

FIXED_B = "fixed_B"
EXACT_SCALED = "exact_scaled"
APPROX_3DB_SCALED = "approx_3db_scaled"
ALPHA_SCALED = "alpha_scaled"

_POLICY_KINDS = (FIXED_B, EXACT_SCALED, APPROX_3DB_SCALED, ALPHA_SCALED)


@dataclass(frozen=True)
class ScalingPolicy:
    """How feedback bits vary with operating SNR.

    fixed_B holds B constant; exact_scaled targets a power gap of
    10*log10(b_gap) dB via B = (M-1) log2 P - (M-1) log2(b_gap - 1);
    approx_3db_scaled is the same law with log2 P replaced by P_dB/3;
    alpha_scaled grows B = alpha * log2 P for multiplexing-gain studies.
    """

    kind: str
    B_fixed: int | None = None
    b_gap: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise DomainError(f"unknown policy kind {self.kind!r}")
        if self.kind == FIXED_B:
            if self.B_fixed is None or self.B_fixed < 0 or self.B_fixed != int(self.B_fixed):
                raise DomainError("fixed_B policy needs an integer B_fixed >= 0")
            if self.b_gap is not None or self.alpha is not None:
                raise DomainError("fixed_B policy takes only B_fixed")
        elif self.kind in (EXACT_SCALED, APPROX_3DB_SCALED):
            if self.b_gap is None or not math.isfinite(self.b_gap) or self.b_gap <= 1.0:
                raise DomainError(f"scaled policies need a finite b_gap > 1, got {self.b_gap}")
            if self.B_fixed is not None or self.alpha is not None:
                raise DomainError(f"{self.kind} policy takes only b_gap")
        else:
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha < 0.0:
                raise DomainError(
                    f"alpha_scaled policy needs a finite alpha >= 0, got {self.alpha}")
            if self.B_fixed is not None or self.b_gap is not None:
                raise DomainError("alpha_scaled policy takes only alpha")

    @classmethod
    def fixed(cls, B: int) -> "ScalingPolicy":
        return cls(kind=FIXED_B, B_fixed=B)

    @classmethod
    def exact_scaled(cls, b_gap: float) -> "ScalingPolicy":
        return cls(kind=EXACT_SCALED, b_gap=b_gap)

    @classmethod
    def approx_3db(cls, b_gap: float) -> "ScalingPolicy":
        return cls(kind=APPROX_3DB_SCALED, b_gap=b_gap)

    @classmethod
    def alpha_scaled(cls, alpha: float) -> "ScalingPolicy":
        return cls(kind=ALPHA_SCALED, alpha=alpha)

    def bits(self, snr_db: float, M: int) -> float:
        """Feedback bits at the given operating point (real-valued)."""
        if self.kind == FIXED_B:
            return float(self.B_fixed)
        if self.kind == EXACT_SCALED:
            return feedback_bits(snr_db, M, self.b_gap, mode="exact")
        if self.kind == APPROX_3DB_SCALED:
            return feedback_bits(snr_db, M, self.b_gap, mode="approx_3")
        return max(0.0, self.alpha * snr_db * LOG2_10 / 10.0)

    def describe(self) -> str:
        if self.kind == FIXED_B:
            return f"fixed_B={self.B_fixed}"
        if self.kind == EXACT_SCALED:
            return f"exact_scaled(b={self.b_gap:g})"
        if self.kind == APPROX_3DB_SCALED:
            return f"approx_3db(b={self.b_gap:g})"
        return f"alpha={self.alpha:g}"


@dataclass(frozen=True)
class ThroughputCurve:
    """Mean throughput (bps/Hz) versus SNR with per-point error bars.

    ``b_bits`` records the feedback bits actually used at each point (NaN
    where not applicable) and ``resamples`` counts discarded singular
    draws, both of which land in the CSV output.
    """

    label: str
    snr_db: np.ndarray
    mean_bps_hz: np.ndarray
    std_err: np.ndarray
    trials: np.ndarray
    M: int
    K: int
    policy: str
    precoder: str
    seed: int
    b_bits: np.ndarray = field(default=None)
    resamples: np.ndarray = field(default=None)

    def __post_init__(self):
        snr = np.asarray(self.snr_db, dtype=float)
        object.__setattr__(self, "snr_db", snr)
        object.__setattr__(self, "mean_bps_hz", np.asarray(self.mean_bps_hz, dtype=float))
        object.__setattr__(self, "std_err", np.asarray(self.std_err, dtype=float))
        object.__setattr__(self, "trials", np.asarray(self.trials, dtype=int))
        if self.b_bits is None:
            object.__setattr__(self, "b_bits", np.full(snr.shape, np.nan))
        else:
            object.__setattr__(self, "b_bits", np.asarray(self.b_bits, dtype=float))
        if self.resamples is None:
            object.__setattr__(self, "resamples", np.zeros(snr.shape, dtype=int))
        else:
            object.__setattr__(self, "resamples", np.asarray(self.resamples, dtype=int))
        if snr.ndim != 1 or len(snr) == 0:
            raise DomainError("snr_db must be a non-empty 1-D grid")
        if np.any(np.diff(snr) <= 0.0):
            raise DomainError("snr_db must be strictly increasing")
        if np.any(self.std_err < 0.0):
            raise DomainError("std_err must be nonnegative")
        for name in ("mean_bps_hz", "std_err", "trials", "b_bits", "resamples"):
            if getattr(self, name).shape != snr.shape:
                raise DomainError(f"{name} must match the snr_db grid shape")


def snr_db_to_linear(snr_db) -> np.ndarray:
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def rate_gap_bound(P: float, M: int, B: float) -> float:
    """Per-user throughput loss bound log2(1 + P * 2^(-B/(M-1))) for
    quantized versus perfect-CSIT zero-forcing."""
    if P <= 0.0:
        raise DomainError(f"P must be > 0, got {P}")
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    if B < 0:
        raise DomainError(f"B must be >= 0, got {B}")
    return math.log2(1.0 + P * 2.0 ** (-B / (M - 1.0)))


def _harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


def ceiling_fixed_B(M: int, B: int) -> tuple[float, float]:
    """Interference-limited sum-rate ceiling for fixed feedback bits.

    Returns (loose, exact_form).  The loose form uses the harmonic-sum
    upper bound and is undefined at M = 2 (log2(M-2) degenerates), in
    which case the exact form is returned in both slots.
    """
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    if B < 0 or B != int(B):
        raise DomainError(f"B must be a nonnegative integer, got {B}")
    exact = M * (1.0 + expected_neg_log2_error(M, B) + LOG2E * _harmonic(M - 2))
    if M == 2:
        return exact, exact
    loose = M * (1.0 + (B + LOG2E) / (M - 1.0) + LOG2E + math.log2(M - 2))
    return loose, exact


def feedback_bits(snr_db: float, M: int, b: float, mode: str = "exact") -> float:
    """Bits needed to hold the ZF power gap at 10*log10(b) dB.

    mode="exact" uses B = (M-1) log2 P - (M-1) log2(b-1); mode="approx_3"
    replaces log2 P with P_dB / 3 (the 3-dB-per-bit rule of thumb).
    Clamped at zero; b must exceed 1 for the target gap to be achievable.
    """
    if b <= 1.0:
        raise DomainError(f"b must be > 1, got {b}")
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    if mode == "exact":
        bits = (M - 1.0) * (snr_db * LOG2_10 / 10.0 - math.log2(b - 1.0))
    elif mode == "approx_3":
        bits = (M - 1.0) * (snr_db / 3.0 - math.log2(b - 1.0))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return max(0.0, bits)


def mux_gain_prediction(alpha: float, M: int) -> float:
    """Multiplexing gain M * min(alpha/(M-1), 1) when B = alpha * log2 P."""
    if alpha < 0.0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    return M * min(alpha / (M - 1.0), 1.0)


def rvq_bit_penalty(M: int) -> float:
    """Extra bits (M-1) log2(M/(M-1)) a random codebook needs relative to an
    idealized quantizer to match mean error; bounded above by log2 e."""
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    return (M - 1.0) * math.log2(M / (M - 1.0))


def zf_dpc_power_offset_db(M: int) -> float:
    """Asymptotic power penalty of perfect-CSIT ZF versus optimal dirty-paper
    coding: (3 log2 e / M) * sum_{j=1}^{M-1} j/(M-j) dB."""
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    return 3.0 * LOG2E / M * sum(j / (M - j) for j in range(1, M))


def fit_multiplexing_gain(curve: ThroughputCurve, window_db: float = 20.0) -> float:
    """Least-squares slope of throughput versus log2 P over the top
    ``window_db`` dB of the sweep; needs at least three points there."""
    snr = curve.snr_db
    mask = snr >= snr.max() - window_db - 1e-9
    if int(mask.sum()) < 3:
        raise InsufficientDataError(
            f"need >= 3 points in the top {window_db} dB, have {int(mask.sum())}")
    log2_p = snr[mask] * LOG2_10 / 10.0
    return float(np.polyfit(log2_p, curve.mean_bps_hz[mask], 1)[0])


def horizontal_offset_db(reference: ThroughputCurve, degraded: ThroughputCurve,
                         snr_min_db: float | None = None,
                         snr_max_db: float | None = None) -> float:
    """Mean horizontal (power) offset in dB between two curves.

    For each degraded point inside the window, finds the SNR at which the
    reference curve reaches the same throughput (linear interpolation) and
    averages the dB differences.  Degraded points whose throughput falls
    outside the reference range are skipped.
    """
    ref_rate = reference.mean_bps_hz
    if np.any(np.diff(ref_rate) <= 0.0):
        raise InsufficientDataError("reference curve must be strictly increasing in rate")
    lo = -np.inf if snr_min_db is None else snr_min_db
    hi = np.inf if snr_max_db is None else snr_max_db
    offsets = []
    for snr, rate in zip(degraded.snr_db, degraded.mean_bps_hz):
        if snr < lo - 1e-9 or snr > hi + 1e-9:
            continue
        if rate < ref_rate[0] or rate > ref_rate[-1]:
            continue
        ref_snr = float(np.interp(rate, ref_rate, reference.snr_db))
        offsets.append(snr - ref_snr)
    if not offsets:
        raise InsufficientDataError("no degraded points map into the reference range")
    return float(np.mean(offsets))


class MisoReference(NamedTuple):
    c_csit: float
    c_nocsit: float
    r_fb_approx: float


_QUAD_NODES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _ergodic_rate(p_eff: float, M: int, n_nodes: int = 160) -> float:
    """E[log2(1 + p_eff * X)] for X ~ Gamma(M, 1), by generalized
    Gauss-Laguerre quadrature with weight x^(M-1) e^(-x)."""
    if M not in _QUAD_NODES:
        from scipy.special import roots_genlaguerre  # scipy stays off the import path
        x, w = roots_genlaguerre(n_nodes, M - 1)
        _QUAD_NODES[M] = (x, w / math.gamma(M))
    x, w = _QUAD_NODES[M]
    return float(np.sum(w * np.log2(1.0 + p_eff * x)))


def miso_reference(P: float, M: int, B: float) -> MisoReference:
    """Single-user reference rates at transmit power P with M antennas.

    c_csit is the beamforming capacity E[log2(1 + P ||h||^2)]; c_nocsit is
    the same expression at P/M (no direction knowledge); r_fb_approx scales
    the effective channel power by (1 - 2^(-B/(M-1))) to approximate B-bit
    quantized beamforming.
    """
    if P <= 0.0:
        raise DomainError(f"P must be > 0, got {P}")
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    if B < 0:
        raise DomainError(f"B must be >= 0, got {B}")
    return MisoReference(
        c_csit=_ergodic_rate(P, M),
        c_nocsit=_ergodic_rate(P / M, M),
        r_fb_approx=_ergodic_rate(P * (1.0 - 2.0 ** (-B / (M - 1.0))), M),
    )
