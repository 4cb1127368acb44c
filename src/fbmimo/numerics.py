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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError

LOG2E = math.log2(math.e)
LOG2_10 = math.log2(10.0)

_U64 = 1 << 64
_SQRT_HALF = math.sqrt(0.5)


class _PhiloxKey:
    """A Philox key offered to numpy as its seed sequence.

    ``generate_state`` returns the two key words numpy asks Philox for, so
    building the bit generator makes no ``SeedSequence`` and reads no OS
    entropy.  It cannot spawn.  numpy accepts it as an ``ISeedSequence``
    once ``_register_key`` has run.
    """

    __slots__ = ("words",)

    def __init__(self, seed: int, stream: int):
        self.words = (stream % _U64, seed % _U64)  # low word first

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # any other request means numpy changed how Philox is seeded; fail
        # rather than silently key a different stream
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, asked for {n_words} x "
                            f"{np.dtype(dtype)}")
        return np.array(self.words, dtype=np.uint64)


@functools.cache
def _register_key() -> None:
    # on first use: importing numpy.random here rather than at module import
    # keeps it off `import fbmimo`'s path
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_PhiloxKey)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by ``(seed, stream)``.

    Equal keys produce bit-identical sample sequences no matter which
    thread or process consumes them, so simulation engines key ``stream``
    by trial index and stay reproducible under any parallel schedule.

    The stream is Philox keyed by the words ``[stream, seed]`` (each mod
    2**64, low word first), i.e. ``Philox(key=seed * 2**64 + stream)``,
    with the counter at zero.  Building it draws no OS entropy.  Its
    generator cannot ``spawn``; a new key gives a new stream.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        _register_key()
        return np.random.Generator(np.random.Philox(_PhiloxKey(self.seed, self.stream)))


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


def _ill_conditioned(a: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Per square matrix: is kappa_F(A) = ||A||_F ||A^-1||_F not below 1e12?
    A boolean over the leading axes; an inf or NaN kappa counts as flagged."""
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    return ~(kappa < 1e12)


def invert(a: np.ndarray) -> np.ndarray:
    """Invert a square complex matrix, or a stack of them, by partial-pivot LU.

    Raises SingularMatrixError, rather than return garbage, for a matrix
    whose condition number kappa_F(A) = ||A||_F ||A^-1||_F is not below
    1e12, or whose LU meets an exact zero pivot.  np.linalg.inv rejects a
    whole stack for one exact zero pivot; then the slogdet sign, 0 just
    for those matrices, names them, and the stack is inverted again with
    them replaced by I, so one raise flags every bad matrix.  For a stack
    the error's ``rows`` marks the flagged matrices.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    # numpy's inverse gives the same bits as solving on scipy's LU factors
    try:
        inv = np.linalg.inv(a)
        zero_pivot = False
    except np.linalg.LinAlgError:
        zero_pivot = np.linalg.slogdet(a)[0] == 0
        inv = np.linalg.inv(np.where(zero_pivot[..., None, None], np.eye(a.shape[-1]), a))
    singular = zero_pivot | _ill_conditioned(a, inv)
    if np.any(singular):
        raise SingularMatrixError("matrix is singular to working precision",
                                  rows=singular if a.ndim > 2 else None)
    return inv

