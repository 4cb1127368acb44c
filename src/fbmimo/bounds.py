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
from .quantizer import _check_bits, _check_m, _harmonic, expected_neg_log2_error

FIXED_B = "fixed_B"
EXACT_SCALED = "exact_scaled"
APPROX_3DB_SCALED = "approx_3db_scaled"
ALPHA_SCALED = "alpha_scaled"


@dataclass(frozen=True)
class ScalingPolicy:
    """How feedback bits vary with operating SNR; ``value`` is the kind's
    one parameter.

    fixed_B holds B = value constant; exact_scaled targets a power gap of
    10*log10(b_gap) dB, b_gap = value, via
    B = (M-1) log2 P - (M-1) log2(b_gap - 1); approx_3db_scaled is the same
    law with log2 P replaced by P_dB/3; alpha_scaled grows
    B = alpha * log2 P, alpha = value, for multiplexing-gain studies.
    """

    kind: str
    value: float

    def __post_init__(self):
        v = self.value
        if self.kind == FIXED_B:
            if not (math.isfinite(v) and v >= 0 and v == int(v)):
                raise DomainError("fixed_B policy needs an integer B_fixed >= 0")
        elif self.kind in (EXACT_SCALED, APPROX_3DB_SCALED):
            if not (math.isfinite(v) and v > 1.0):
                raise DomainError(f"scaled policies need a finite b_gap > 1, got {v}")
        elif self.kind == ALPHA_SCALED:
            if not (math.isfinite(v) and v >= 0.0):
                raise DomainError(f"alpha_scaled policy needs a finite alpha >= 0, got {v}")
        else:
            raise DomainError(f"unknown policy kind {self.kind!r}")

    @classmethod
    def fixed(cls, B: int) -> "ScalingPolicy":
        return cls(FIXED_B, B)

    @classmethod
    def exact_scaled(cls, b_gap: float) -> "ScalingPolicy":
        return cls(EXACT_SCALED, b_gap)

    @classmethod
    def approx_3db(cls, b_gap: float) -> "ScalingPolicy":
        return cls(APPROX_3DB_SCALED, b_gap)

    @classmethod
    def alpha_scaled(cls, alpha: float) -> "ScalingPolicy":
        return cls(ALPHA_SCALED, alpha)

    def bits(self, snr_db: float, M: int) -> float:
        """Feedback bits at the given operating point (real-valued)."""
        if self.kind == FIXED_B:
            return float(self.value)
        if self.kind == EXACT_SCALED:
            return feedback_bits(snr_db, M, self.value, mode="exact")
        if self.kind == APPROX_3DB_SCALED:
            return feedback_bits(snr_db, M, self.value, mode="approx_3")
        _check_point(snr_db, M)
        return max(0.0, self.value * snr_db * LOG2_10 / 10.0)

    def describe(self) -> str:
        if self.kind == FIXED_B:
            return f"fixed_B={self.value}"
        if self.kind == EXACT_SCALED:
            return f"exact_scaled(b={self.value:g})"
        if self.kind == APPROX_3DB_SCALED:
            return f"approx_3db(b={self.value:g})"
        return f"alpha={self.value:g}"


@dataclass(frozen=True)
class ThroughputCurve:
    """Mean throughput (bps/Hz) versus SNR with per-point error bars.

    ``b_bits`` records the feedback bits actually used at each point (NaN
    where not applicable); it lands in the CSV output.
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
        if snr.ndim != 1 or len(snr) == 0:
            raise DomainError("snr_db must be a non-empty 1-D grid")
        if np.any(np.diff(snr) <= 0.0):
            raise DomainError("snr_db must be strictly increasing")
        if np.any(self.std_err < 0.0):
            raise DomainError("std_err must be nonnegative")
        for name in ("mean_bps_hz", "std_err", "trials", "b_bits"):
            if getattr(self, name).shape != snr.shape:
                raise DomainError(f"{name} must match the snr_db grid shape")

    @property
    def resamples(self) -> np.ndarray:
        """Zeros, the CSV's resamples column, which stays for the schema's
        sake: no trial is redrawn, a singular build raises instead."""
        return np.zeros(self.snr_db.shape, dtype=int)


def snr_db_to_linear(snr_db) -> np.ndarray:
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def rate_gap_bound(P: float, M: int, B: float) -> float:
    """Per-user throughput loss bound log2(1 + P * 2^(-B/(M-1))) for
    quantized versus perfect-CSIT zero-forcing."""
    if not P > 0.0:
        raise DomainError(f"P must be > 0, got {P}")
    _check_m(M)
    _check_bits(B)
    return math.log2(1.0 + P * 2.0 ** (-B / (M - 1.0)))


def ceiling_fixed_B(M: int, B: int) -> tuple[float, float]:
    """Interference-limited sum-rate ceiling for fixed feedback bits.

    Returns (loose, exact_form).  The loose form uses the harmonic-sum
    upper bound and is undefined at M = 2 (log2(M-2) degenerates), in
    which case the exact form is returned in both slots.
    """
    _check_m(M)
    if not (math.isfinite(B) and B >= 0 and B == int(B)):
        raise DomainError(f"B must be a nonnegative integer, got {B}")
    exact = M * (1.0 + expected_neg_log2_error(M, B) + LOG2E * _harmonic(M - 2))
    if M == 2:
        return exact, exact
    loose = M * (1.0 + (B + LOG2E) / (M - 1.0) + LOG2E + math.log2(M - 2))
    return loose, exact


def _check_point(snr_db: float, M: int) -> None:
    """The operating point of a scaled bit count: M >= 2 and a number of dB."""
    _check_m(M)
    if math.isnan(snr_db):
        raise DomainError(f"snr_db must be a number, got {snr_db}")


def feedback_bits(snr_db: float, M: int, b: float, mode: str = "exact") -> float:
    """Bits needed to hold the ZF power gap at 10*log10(b) dB.

    mode="exact" uses B = (M-1) log2 P - (M-1) log2(b-1); mode="approx_3"
    replaces log2 P with P_dB / 3 (the 3-dB-per-bit rule of thumb).
    Clamped at zero; b must exceed 1 for the target gap to be achievable.
    """
    if not b > 1.0:
        raise DomainError(f"b must be > 1, got {b}")
    _check_point(snr_db, M)
    if mode == "exact":
        bits = (M - 1.0) * (snr_db * LOG2_10 / 10.0 - math.log2(b - 1.0))
    elif mode == "approx_3":
        bits = (M - 1.0) * (snr_db / 3.0 - math.log2(b - 1.0))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return max(0.0, bits)


def mux_gain_prediction(alpha: float, M: int) -> float:
    """Multiplexing gain M * min(alpha/(M-1), 1) when B = alpha * log2 P."""
    if not alpha >= 0.0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    _check_m(M)
    return M * min(alpha / (M - 1.0), 1.0)


def rvq_bit_penalty(M: int) -> float:
    """Extra bits (M-1) log2(M/(M-1)) a random codebook needs relative to an
    idealized quantizer to match mean error; bounded above by log2 e."""
    _check_m(M)
    return (M - 1.0) * math.log2(M / (M - 1.0))


def zf_dpc_power_offset_db(M: int) -> float:
    """Asymptotic power penalty of perfect-CSIT ZF versus optimal dirty-paper
    coding: (3 log2 e / M) * sum_{j=1}^{M-1} j/(M-j) dB."""
    _check_m(M)
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


def _exp_en(n: int, x: float) -> float:
    """e^x E_n(x) for integer n >= 1 and x > 0, with E_n the generalized
    exponential integral.

    Up to x = 1, the power series E1(x) = -gamma - ln x - sum (-x)^k/(k k!)
    and then the upward recurrence e^x E_(k+1)(x) = (1 - x e^x E_k(x))/k,
    which damps errors while x <= k.  Above, the continued fraction
    1/(x+n - 1 n/(x+n+2 - 2 (n+1)/(x+n+4 - ...))) by the modified Lentz
    method (Press et al., Numerical Recipes, 3rd ed., 6.3), which never
    forms e^x.  Past x = 1e15 the fraction's first term 1/(x+n) is the
    value to rounding; the Lentz loop would stall from x = 1.8e16, where
    b + 2 rounds back to b.  Against a 30-digit mpmath reference the worst
    relative error over n = 1..65, x in [1e-8, 1e5] is 7e-15, at x just
    above 1.
    """
    if not x > 0.0:
        raise DomainError(f"x must be > 0, got {x}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if x <= 1.0:
        total, term, k = 0.0, 1.0, 0
        while True:
            k += 1
            term *= -x / k  # (-x)^k / k!
            total -= term / k
            if abs(term / k) <= 1e-17 * abs(total):
                break
        value = math.exp(x) * (total - np.euler_gamma - math.log(x))
        for k in range(1, n):
            value = (1.0 - x * value) / k
        return value
    if x > 1e15:  # the fraction's first term, within n/x^2 relative
        return 1.0 / (x + n)
    b = x + n
    c, d = math.inf, 1.0 / b
    value, i = d, 0
    while True:
        i += 1
        a = -float(i * (n - 1 + i))
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        value *= delta
        if abs(delta - 1.0) <= 1e-16:
            return value


def zf_perfect_sum_rate(P: float, M: int) -> float:
    """Mean perfect-CSIT zero-forcing sum rate with K = M users.

    Each user's ZF gain is Exp(1), so the mean is M E[log2(1 + (P/M) X)]
    = M log2(e) e^(M/P) E1(M/P), and 0 at P = 0.
    """
    if not P >= 0.0:
        raise DomainError(f"P must be >= 0, got {P}")
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    return M * LOG2E * _exp_en(1, M / P) if P > 0.0 else 0.0


def unitary_sum_rate(P: float, M: int) -> float:
    """Mean sum rate of M users on M orthonormal beams, P/M each, that are
    independent of the channel.

    A user's gain on its own beam is Exp(1) and its gains on the other
    beams sum to a Gamma(M - 1, 1), independently; the two sum to a
    Gamma(M, 1).  So the mean is M (E[log2(1 + (P/M) Gamma(M))] -
    E[log2(1 + (P/M) Gamma(M - 1))]), and 0 at P = 0.
    """
    if not P >= 0.0:
        raise DomainError(f"P must be >= 0, got {P}")
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    return M * (_ergodic_rate(P / M, M) - _ergodic_rate(P / M, M - 1))


def random_bf_sum_rate(P: float, M: int, K: int) -> float | None:
    """Mean of R = sum_m log2(1 + max_k SINR_km) over M random orthonormal
    beams at power P/M each and K users, or None where the sum below
    cancels too far to be trusted.

    R lets every beam serve its best user, even one that is best on another
    beam too.  For a fixed beam the K users' SINRs are iid with CDF
    F(x) = 1 - e^(-x/rho)/(1+x)^(M-1), rho = P/M (Sharif and Hassibi, IEEE
    Trans. IT, 2005), so E[R] = (M/ln 2) int (1 - F(x)^K)/(1+x) dx, and
    expanding 1 - F^K gives
    (M/ln 2) sum_{j=1}^K (-1)^(j+1) C(K, j) e^(j/rho) E_{j(M-1)+1}(j/rho).
    The terms alternate and grow with K, so the sum cancels.  It is
    returned only when sum |t_j| 2^-52 <= 1e-12 |sum t_j|.  Against an
    mpmath quadrature over -10..40 dB it is within 2e-14 at (M, K) = (8, 8),
    (4, 10), (4, 4) and (2, 2), where sum |t_j| / |sum t_j| is at most 89;
    the test rejects (2, 20) (ratio 4.6e4, 3e-11 off), (4, 40) (6e-6 off)
    and (8, 64) (off by more than the mean).  Since each SINR is at most
    rho times an Exp(1) gain, |sum t_j| <= ln(1 + rho H_K) <=
    ln(1 + rho (1 + ln K)), so the loop gives up as soon as the terms so
    far are too large for any sum below that.
    """
    if not P >= 0.0:
        raise DomainError(f"P must be >= 0, got {P}")
    if M < 1 or K < 1:
        raise DomainError(f"M and K must be >= 1, got M={M}, K={K}")
    if P == 0.0:
        return 0.0
    if math.isinf(P):
        return None
    limit = 1e-12 * 2.0 ** 52  # the largest sum |t_j| / |sum t_j| accepted
    cap = limit * math.log1p(P / M * (1.0 + math.log(K)))
    terms, size = [], 0.0
    for j in range(1, K + 1):
        count = math.comb(K, j)
        if count > 1e308:  # beyond floats, and far beyond the cap
            return None
        term = count * _exp_en(j * (M - 1) + 1, j * M / P)  # j / rho
        size += term
        if size > cap:
            return None
        terms.append(term if j % 2 else -term)
    total = math.fsum(terms)
    if math.fsum(map(abs, terms)) > limit * abs(total):
        return None
    return M * LOG2E * total


class MisoReference(NamedTuple):
    c_csit: float
    c_nocsit: float
    r_fb_approx: float


def _ergodic_rate(p_eff: float, M: int) -> float:
    """E[log2(1 + p_eff * X)] for X ~ Gamma(M, 1), which is
    log2(e) sum_{k=1}^M e^(1/p_eff) E_k(1/p_eff), and 0 at p_eff = 0."""
    if p_eff == 0.0:
        return 0.0
    x = 1.0 / p_eff
    return LOG2E * sum(_exp_en(k, x) for k in range(1, M + 1))


def miso_reference(P: float, M: int, B: float) -> MisoReference:
    """Single-user reference rates at transmit power P with M antennas.

    c_csit is the beamforming capacity E[log2(1 + P ||h||^2)]; c_nocsit is
    the same expression at P/M (no direction knowledge); r_fb_approx scales
    the effective channel power by (1 - 2^(-B/(M-1))) to approximate B-bit
    quantized beamforming.
    """
    if not P > 0.0:
        raise DomainError(f"P must be > 0, got {P}")
    _check_m(M)
    _check_bits(B)
    return MisoReference(
        c_csit=_ergodic_rate(P, M),
        c_nocsit=_ergodic_rate(P / M, M),
        r_fb_approx=_ergodic_rate(P * (1.0 - 2.0 ** (-B / (M - 1.0))), M),
    )
