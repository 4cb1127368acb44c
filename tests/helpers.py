"""Helpers shared by the test modules."""

import math
import os

import numpy as np

from fbmimo.errors import DomainError


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


def optimal_error_cdf(z, M: int, B: float):
    """CDF min(2^B z^(M-1), 1) of the error of an idealized quantizer whose
    codewords never overlap, for z in [0, 1]: the law whose mean is
    quantizer.expected_optimal_error."""
    with np.errstate(divide="ignore"):
        return np.minimum(1.0, np.exp(B * math.log(2.0) + (M - 1) * np.log(np.asarray(z, float))))


class ZeroNormals:
    """A generator whose standard normals are all zero; every other draw is
    the wrapped generator's."""

    def __init__(self, gen):
        self._gen = gen

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def standard_normal(self, size=None):
        return np.zeros(size)


def no_child_left() -> bool:
    """True if this process has no child, not even an unreaped one."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
