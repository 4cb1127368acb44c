"""Zero-forcing and regularized zero-forcing beamformers.

All functions take a row matrix ``G`` whose row ``i`` is the conjugated
channel ``h_i^H`` (see numerics module conventions), so ``G @ v`` stacks the
inner products ``h_i^H v``.  The beamformers also take a stack of row
matrices, shape (..., K, M), and return one beam matrix per entry.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .numerics import invert

ZF = "ZF"
RZF = "RZF"


def zf_beamformers(G: np.ndarray) -> np.ndarray:
    """Normalized columns of G^-1, one unit-norm beam per user as an (M, K)
    matrix; beam j is orthogonal to every row i != j."""
    inv = invert(G)
    return inv / np.linalg.norm(inv, axis=-2, keepdims=True)


def rzf_beamformers(G: np.ndarray, P: float) -> np.ndarray:
    """Normalized columns of G^H (G G^H + (M/P) I)^-1 as an (M, K) matrix.

    The M/P ridge keeps the system invertible at any SNR and the beams
    converge to the zero-forcing directions as P grows.
    """
    G = np.asarray(G, dtype=complex)
    if P <= 0.0:
        raise DomainError(f"P must be > 0, got {P}")
    K, M = G.shape[-2:]
    gram = G @ np.swapaxes(G.conj(), -1, -2) + (M / P) * np.eye(K, dtype=complex)
    v = np.swapaxes(np.linalg.solve(gram, G).conj(), -1, -2)
    return v / np.linalg.norm(v, axis=-2, keepdims=True)
