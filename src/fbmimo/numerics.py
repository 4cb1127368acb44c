"""Complex-Gaussian sampling, keyed random streams, and small linear algebra.

Conventions used throughout the package:

* A channel is a 1-D complex array ``h`` of length ``M``.  Inner products
  are conjugate-linear in the first argument, ``np.vdot(h, v) == h^H v``.
* A "row matrix" stacks conjugated channels, so row ``i`` acts on a
  transmit vector as ``h_i^H x``.  Build one with ``np.conj(np.stack(...))``.
* Entries of a standard complex Gaussian CN(0, 1) have real and imaginary
  parts that are independent N(0, 1/2), so E[|g|^2] = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor

from .errors import DomainError, SingularMatrixError

LOG2E = math.log2(math.e)
LOG2_10 = math.log2(10.0)

_U64 = 1 << 64
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by ``(seed, stream)``.

    Equal keys produce bit-identical sample sequences no matter which
    thread or process consumes them, so simulation engines key ``stream``
    by trial index and stay reproducible under any parallel schedule.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed % _U64) * _U64 + (self.stream % _U64)
        return np.random.Generator(np.random.Philox(key=key))


def sample_complex_gaussian(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw CN(0, 1) entries; shape ``(dim,)`` or ``(size, dim)``."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    shape = (dim,) if size is None else (size, dim)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * _SQRT_HALF


def sample_isotropic_unit(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw unit vectors uniform on the complex sphere in C^dim."""
    v = sample_complex_gaussian(dim, rng, size)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    while np.any(norms == 0.0):  # probability-zero guard
        v = sample_complex_gaussian(dim, rng, size)
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / norms


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed unitary via QR of an iid CN(0,1) matrix.

    Column phases are fixed by the sign of diag(R) so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    g = sample_complex_gaussian(dim, rng, size=dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def invert(a: np.ndarray) -> np.ndarray:
    """Invert a square complex matrix by partial-pivot LU.

    Raises SingularMatrixError when the smallest pivot falls below
    1e-12 * ||A||_F, treating near-singular input as singular instead of
    returning garbage.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        lu, piv = lu_factor(a, check_finite=False)
    scale = np.linalg.norm(a)
    if np.min(np.abs(np.diagonal(lu))) <= 1e-12 * scale:
        raise SingularMatrixError("matrix is singular to working precision")
    # numpy's inverse gives the same bits as solving on scipy's factors
    # above, without waking scipy's OpenBLAS thread pool on a tiny system
    return np.linalg.inv(a)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta_fn(x: float, y: float) -> float:
    """Beta function computed in log space to stay finite for large arguments."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta_fn requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def angle_sin2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared sine of the principal angle between complex vectors.

    Returns 1 - |a^H b|^2 / (||a||^2 ||b||^2), clamped into [0, 1] so
    rounding can never push it outside the unit interval.  Invariant under
    nonzero complex scaling of either argument.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    na2 = np.real(np.vdot(a, a))
    nb2 = np.real(np.vdot(b, b))
    if na2 == 0.0 or nb2 == 0.0:
        raise DomainError("angle_sin2 is undefined for zero vectors")
    cos2 = abs(np.vdot(a, b)) ** 2 / (na2 * nb2)
    return min(max(1.0 - cos2, 0.0), 1.0)
