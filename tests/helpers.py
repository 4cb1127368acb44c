"""Helpers shared by the test modules."""

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


def no_child_left() -> bool:
    """True if this process has no child, not even an unreaped one."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
