"""Random vector quantization of channel directions.

A B-bit quantizer holds ``2**B`` codewords drawn independently and
isotropically from the unit sphere in C^M.  A receiver feeds back the index
of the codeword closest in angle to its channel direction; the figure of
merit is the squared angular error ``Z = sin^2(angle(h, h_hat))``, which is
the minimum of ``2**B`` independent Beta(M-1, 1) variables.

The brute-force path draws and searches codebooks: ``generate_codebook``
draws one, and ``quantize`` returns the pair ``(h_hat, z)`` of the chosen
codeword and its error.  The closed forms are the law of ``Z`` (its CCDF,
E[Z] and its bound 2^(-B/(M-1)), E[-log2 Z]) and the mean error of an
idealized quantizer.  The fast path samples ``Z`` by inverting the CCDF, which is
what makes large-B experiments affordable: the decomposition
``h_dir = sqrt(1-Z) h_hat + sqrt(Z) s`` (``s`` isotropic in the nullspace
of ``h_hat``, independent of ``Z``) reproduces the joint law of the
quantized pair without enumerating a codebook.  Both samplers draw
``size`` values per generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .numerics import (LOG2E, draw_rows, sample_complex_gaussian, sample_isotropic_unit,
                       unit_rows)

# A codebook's draw and search hold about 40 bytes per entry (see
# simulate._SHARE_BUDGET_ENTRIES, the bound over a stack's runs), so
# M * 2^B entries up to 2^24 take about 640 MiB.
MAX_CODEBOOK_ENTRIES = 1 << 24

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Codebook:
    """``2**B`` unit-norm codewords in C^M, one per row of ``words``."""

    words: np.ndarray


def _check_m(M: int) -> None:
    if not M >= 2:
        raise DomainError(f"M must be >= 2, got {M}")


def _check_bits(B: float) -> None:
    if not B >= 0:
        raise DomainError(f"B must be >= 0, got {B}")


def _enumerable_bits(M: int, B) -> int:
    """B as the bits of a codebook in C^M: an integer >= 0 with M * 2^B at
    most MAX_CODEBOOK_ENTRIES."""
    if not (math.isfinite(B) and B >= 0 and B == int(B)):
        raise DomainError(f"codebook bits must be a nonnegative integer, got {B}")
    B = int(B)
    if M > MAX_CODEBOOK_ENTRIES >> B:
        raise CapacityError(f"M={M}, B={B} exceeds the enumerable budget of "
                            f"M * 2^B <= {MAX_CODEBOOK_ENTRIES} codebook entries")
    return B


def _codebook_bits(M: int, B: float) -> int:
    """A policy's real-valued B rounded up to a whole codebook in C^M, with
    1e-9 of slack for rounding noise; CapacityError past the cap."""
    if not math.isfinite(B):
        raise DomainError(f"codebook bits must be finite, got {B}")
    return _enumerable_bits(M, math.ceil(B - 1e-9))


def generate_codebook(M: int, B: int, rng: np.random.Generator) -> Codebook:
    """Draw a fresh random codebook of ``2**B`` isotropic unit vectors."""
    _check_m(M)
    B = _enumerable_bits(M, B)
    words = sample_isotropic_unit(M, rng, size=1 << B)
    return Codebook(words=words)


def quantize(h: np.ndarray, codebook: Codebook) -> tuple[np.ndarray, float]:
    """The pair (h_hat, z): the codeword maximizing |h^H w|, ties resolving
    to the lowest index, and its error z = sin^2(angle(h, h_hat))."""
    h = np.asarray(h, dtype=complex)
    norm2 = float(np.real(np.vdot(h, h)))
    if norm2 == 0.0:
        raise DomainError("cannot quantize the zero vector")
    if not math.isfinite(norm2):
        raise DomainError(f"cannot quantize a vector whose squared norm is {norm2}")
    # einsum never reaches BLAS; with OPENBLAS_NUM_THREADS > 1, a (2^B, M)
    # matvec there wakes OpenBLAS's thread pool, whose hand-off costs far
    # more than the product itself
    cos2 = np.abs(np.einsum("km,m->k", codebook.words, h.conj())) ** 2 / norm2
    index = int(np.argmax(cos2))
    return codebook.words[index], min(max(1.0 - float(cos2[index]), 0.0), 1.0)


def error_ccdf(z, M: int, B: float):
    """Pr(Z >= z) = (1 - z^(M-1))^(2^B) for the minimum-angle error Z.

    Evaluated as exp(-exp(B ln 2 + ln(-ln(1 - z^(M-1))))) so that 2^B is
    never formed and any real B stays finite.
    """
    _check_m(M)
    _check_bits(B)
    z_arr = np.asarray(z, dtype=float)
    if not np.all((z_arr >= 0.0) & (z_arr <= 1.0)):
        raise DomainError("z must lie in [0, 1]")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.exp(-np.exp(B * _LN2 + np.log(-np.log1p(-(z_arr ** (M - 1))))))
    out = np.where(z_arr >= 1.0, 0.0, out)
    return float(out) if np.isscalar(z) else out


def _ln_gamma_ratio(x: float, c: float) -> float:
    """ln Gamma(x + c) - ln Gamma(x) for x >= 1 and 0 < c <= 2.

    Differencing two log-gammas loses about log10(x) digits, so for
    x >= 32 the Stirling series is differenced term by term instead; its
    truncation error is below 1e-16 there.
    """
    if x < 32.0:
        return math.lgamma(x + c) - math.lgamma(x)

    def series(y: float) -> float:  # ln Gamma(y) - (y - 1/2) ln y + y - ln(2 pi)/2
        y2 = y * y
        return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * y2)) / y2) / y2) / y

    return (x - 0.5) * math.log1p(c / x) + c * math.log(x + c) - c + series(x + c) - series(x)


def expected_error(M: int, B: float) -> float:
    """E[Z] = 2^B * beta(2^B, M/(M-1)), evaluated in log space.

    For M = 2 this collapses to 1 / (2^B + 1) exactly.
    """
    _check_m(M)
    _check_bits(B)
    c = M / (M - 1.0)
    if B > 500.0:
        # beta(n, c) ~ Gamma(c) n^(-c) for huge n; avoids inf - inf in lgamma
        return math.exp(math.lgamma(c) - (c - 1.0) * B * _LN2)
    return math.exp(B * _LN2 + math.lgamma(c) - _ln_gamma_ratio(2.0 ** B, c))


def error_upper_bound(M: int, B: float) -> float:
    """Closed-form bound E[Z] <= 2^(-B/(M-1))."""
    _check_m(M)
    _check_bits(B)
    return 2.0 ** (-B / (M - 1.0))


# B_2k / (2k) for k = 1..6, the terms of psi's asymptotic series
_DIGAMMA_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
                   -691.0 / 32760.0)


def _harmonic(n: int) -> float:
    """H(n) = sum_{k=1}^n 1/k, summed directly: psi(n + 1) + gamma would
    only round it."""
    return sum(1.0 / k for k in range(1, n + 1))


def _digamma(x: float) -> float:
    """psi(x) for x > 0.

    At integers up to 10, psi(n) = H(n - 1) - gamma, summed directly, so
    that H(n - 1) comes back exactly.  Elsewhere the recurrence
    psi(x) = psi(x + 1) - 1/x carries x up to 10 or more, where the
    asymptotic series ln x - 1/(2x) - sum_k B_2k / (2k x^2k), cut after
    k = 6, is off by less than x^-14 / 12 < 1e-15.  This is the method of
    the Cephes library's psi.
    """
    if x <= 10.0 and x == math.floor(x):
        return _harmonic(int(x) - 1) - np.euler_gamma
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for coef in reversed(_DIGAMMA_SERIES):
        series = (series + coef) * inv2
    return shift + math.log(x) - 0.5 / x - series


def expected_neg_log2_error(M: int, B: float) -> float:
    """E[-log2 Z] = (log2 e / (M-1)) * H(2^B) with H the harmonic number.

    The harmonic number is evaluated through the digamma identity
    H(n) = psi(n + 1) + gamma, which is exact and extends smoothly to
    non-integer 2^B.  Past B = 500 it is B ln 2 + gamma, whose error
    1/(2 * 2^B) is far below rounding and which never forms 2^B.
    """
    _check_m(M)
    _check_bits(B)
    if B > 500.0:
        harmonic = B * _LN2 + np.euler_gamma
    else:
        harmonic = _digamma(2.0 ** B + 1.0) + np.euler_gamma
    return LOG2E * harmonic / (M - 1.0)


def sample_error(M: int, B: float, rng, size: int) -> np.ndarray:
    """Draw Z by inverting the CCDF: Z = (1 - U^(2^-B))^(1/(M-1)).

    The inner factor is computed as -expm1(2^-B * ln U), which keeps
    precision when B is large and U^(2^-B) approaches 1.  Past B = 900 that
    product can leave the normal range and Z underflow to 0, so there
    ln Z = (ln(-ln U) - B ln 2)/(M-1) is drawn instead; U = 0 gives Z = 1.
    """
    _check_m(M)
    _check_bits(B)
    u = draw_rows(rng, lambda gen: gen.random(size))
    with np.errstate(divide="ignore"):
        if B > 900.0:
            return np.exp(np.minimum((np.log(-np.log(u)) - B * _LN2) / (M - 1.0), 0.0))
        inner = -np.expm1((2.0 ** (-B)) * np.log(u))
        return inner ** (1.0 / (M - 1.0))


def sample_quantized_pair(M: int, B: float, rng, size: int) -> tuple:
    """Draw (h_dir, h_hat, z) with the same joint law as quantizing an
    isotropic direction against a fresh random codebook.

    Returns ``size`` draws: h_dir and h_hat of shape ``(size, M)`` and z of
    shape ``(size,)``, behind a leading axis for a list of generators.
    Works for any real B >= 0 since no codebook is enumerated.
    At M = 2 the nullspace of h_hat is one-dimensional and ``s`` reduces to
    the unique orthogonal direction carrying a uniform phase.
    """
    h_hat = sample_isotropic_unit(M, rng, size=size)
    z = sample_error(M, B, rng, size=size)
    g = sample_complex_gaussian(M, rng, size=size)
    proj = np.einsum("...m,...m->...", h_hat.conj(), g)
    s = unit_rows(g - proj[..., None] * h_hat)
    h_dir = np.sqrt(1.0 - z)[..., None] * h_hat + np.sqrt(z)[..., None] * s
    return h_dir, h_hat, z


def expected_optimal_error(M: int, B: float) -> float:
    """Mean error ((M-1)/M) * 2^(-B/(M-1)) of an idealized quantizer whose
    codewords never overlap, which lower-bounds any B-bit quantizer."""
    _check_m(M)
    _check_bits(B)
    return (M - 1.0) / M * 2.0 ** (-B / (M - 1.0))
