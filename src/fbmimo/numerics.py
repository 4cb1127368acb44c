"""Complex-Gaussian sampling, keyed random streams, and small linear algebra.

Conventions used throughout the package:

* A channel is a 1-D complex array ``h`` of length ``M``.  Inner products
  are conjugate-linear in the first argument, ``np.vdot(h, v) == h^H v``.
* A "row matrix" stacks conjugated channels, so row ``i`` acts on a
  transmit vector as ``h_i^H x``.  Build one with ``np.conj(np.stack(...))``.
* Entries of a standard complex Gaussian CN(0, 1) have real and imaginary
  parts that are independent N(0, 1/2), so E[|g|^2] = 1.
* A sampler's ``rng`` is one generator or a list (or tuple) of them.  A
  list stacks one draw per generator along a new leading axis: row t is
  exactly what ``rng[t]`` alone would have returned, so a stack of trials
  drawn at once keeps every trial's stream.  The linear algebra
  below likewise maps over leading axes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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


def draw_rows(rng, draw) -> np.ndarray:
    """draw(generator) for one generator, or for a list of generators the
    stack whose row t is draw(rng[t])."""
    if not isinstance(rng, (list, tuple)):
        return np.asarray(draw(rng))
    first = np.asarray(draw(rng[0]))
    out = np.empty((len(rng), *first.shape), dtype=first.dtype)
    out[0] = first
    for t in range(1, len(rng)):
        out[t] = draw(rng[t])
    return out


def redraw_streams(rng, bad: np.ndarray, values: np.ndarray, sample) -> np.ndarray:
    """Replace values by sample(streams) for the streams with a flagged entry.

    One generator redraws everything; for a list, row t of ``values`` is
    redrawn from rng[t] when any entry of row t of ``bad`` is set.
    """
    if not isinstance(rng, (list, tuple)):
        return sample(rng)
    rows = np.flatnonzero(bad.reshape(len(rng), -1).any(axis=1))
    values[rows] = sample([rng[t] for t in rows])
    return values


def sample_complex_gaussian(dim: int, rng, size: int | None = None) -> np.ndarray:
    """Draw CN(0, 1) entries; shape ``(dim,)`` or ``(size, dim)``."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    shape = (dim,) if size is None else (size, dim)
    # the real parts, then the imaginary parts, in one call per stream
    parts = draw_rows(rng, lambda gen: gen.standard_normal((2, *shape)))
    re, im = np.moveaxis(parts, -1 - len(shape), 0)
    return (re + 1j * im) * _SQRT_HALF


def sample_isotropic_unit(dim: int, rng, size: int | None = None) -> np.ndarray:
    """Draw unit vectors uniform on the complex sphere in C^dim."""
    v = sample_complex_gaussian(dim, rng, size)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    while np.any(norms == 0.0):  # probability-zero guard
        v = redraw_streams(rng, norms == 0.0, v,
                           lambda streams: sample_complex_gaussian(dim, streams, size))
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / norms


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Draw a Haar-distributed unitary via QR of an iid CN(0,1) matrix.

    Column phases are fixed by the sign of diag(R) so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    g = sample_complex_gaussian(dim, rng, size=dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def near_singular(a: np.ndarray) -> np.ndarray:
    """Per square matrix: is its smallest partial-pivot LU pivot at most
    1e-12 * ||A||_F?  A boolean over the leading axes of ``a``."""
    from scipy.linalg import lu_factor  # scipy stays off the import path

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        lu, _ = lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1)).min(axis=-1)
    return pivots <= 1e-12 * np.linalg.norm(a, axis=(-2, -1))


def invert(a: np.ndarray) -> np.ndarray:
    """Invert a square complex matrix, or a stack of them, by partial-pivot LU.

    Raises SingularMatrixError when near_singular() flags a matrix,
    treating near-singular input as singular instead of returning garbage;
    for a stack the error's ``rows`` marks the flagged matrices.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    singular = near_singular(a)
    if np.any(singular):
        raise SingularMatrixError("matrix is singular to working precision",
                                  rows=singular if a.ndim > 2 else None)
    # numpy's inverse gives the same bits as solving on scipy's factors,
    # without waking scipy's OpenBLAS thread pool on a tiny system
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
