"""Zero-forcing and regularized zero-forcing beamformers plus SINR evaluation.

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


def sinr(h: np.ndarray, beams: np.ndarray, i: int, P: float) -> float:
    """SINR of user i under equal per-stream power P/M across all beams
    (the columns of ``beams``)."""
    gains = np.abs(np.asarray(h).conj() @ beams) ** 2
    per_stream = P / beams.shape[1]
    signal = per_stream * gains[i]
    interference = per_stream * (gains.sum() - gains[i])
    return float(signal / (1.0 + interference))


def zf_rates_perfect_csit(H: np.ndarray, P: float) -> np.ndarray:
    """Per-user rates log2(1 + (P/M)|h_i^H v_i|^2) for perfect-CSIT ZF,
    where the interference term is exactly zero by construction."""
    H = np.asarray(H, dtype=complex)
    beams = zf_beamformers(H)
    M = H.shape[1]
    diag_gains = np.abs(np.einsum("ij,ji->i", H, beams)) ** 2
    return np.log2(1.0 + (P / M) * diag_gains)
