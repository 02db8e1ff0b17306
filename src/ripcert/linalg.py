"""Dense real/complex matrix kernels behind every certification formula.

Frames store their matrix as read-only complex128 ndarrays; real matrices
are the special case whose imaginary part vanishes, which ``Frame.is_real``
reports. Spectra and norms come from LAPACK (via numpy).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    MatrixShapeError,
    NotHermitianError,
    UnsupportedExponentError,
)

#: absolute tolerance; e.g. a matrix whose imaginary parts stay within it counts as real
DEFAULT_TOL = 1e-12


def gram(arr: np.ndarray) -> np.ndarray:
    """Conjugate-transpose product A*A, symmetrized to be exactly Hermitian.

    Finite entries near 1e154 overflow to inf or nan here without a
    warning; callers that need a finite Gram check it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = arr.conj().T @ arr
        g = 0.5 * (g + g.conj().T)
    g.setflags(write=False)
    return g


def _require_square_hermitian(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixShapeError(f"{what} requires a square matrix, got {arr.shape}")
    scale = max(1.0, float(np.abs(arr).max()))
    dev = float(np.abs(arr - arr.conj().T).max())
    if dev > 1e-12 * scale:
        raise NotHermitianError(f"{what} requires a Hermitian matrix (deviation {dev:.3e})")
    return 0.5 * (arr + arr.conj().T)


def spectral_norm(arr: np.ndarray) -> float:
    """Largest singular value of an ndarray (array-level helper).

    Hermitian inputs take the fast path through their own spectrum; the
    general case goes through the spectrum of A*A, reusing the same
    Hermitian solver.
    """
    if arr.shape[0] == arr.shape[1]:
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.conj().T).max()) <= 1e-12 * scale:
            w = np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))
            return float(np.abs(w).max())
    g = arr.conj().T @ arr
    w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    return math.sqrt(max(float(w.max()), 0.0))


def trace_power(h: np.ndarray, p: int) -> float:
    """Tr[H^p] for Hermitian H and even positive p."""
    if not isinstance(p, int) or p <= 0:
        raise UnsupportedExponentError(f"exponent must be a positive integer, got {p}")
    if p % 2 != 0:
        raise UnsupportedExponentError(f"only even exponents are supported, got {p}")
    sym = _require_square_hermitian(np.asarray(h, dtype=np.complex128), "trace_power")
    return float(np.trace(np.linalg.matrix_power(sym, p)).real)
