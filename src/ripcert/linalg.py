"""Dense real/complex matrix kernels behind every certification formula.

Matrices are always carried with complex storage; real matrices are the
special case whose imaginary part vanishes, detected by the cheap
``DenseMatrix.is_real`` predicate. Spectra and norms come from LAPACK
(via numpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    MatrixShapeError,
    NotHermitianError,
    UnsupportedExponentError,
)

DEFAULT_TOL = 1e-12
#: absolute imaginary-part threshold below which a matrix counts as real
REAL_TOL = 1e-12


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable dense matrix with complex storage.

    The wrapped array is cast to complex128, made read-only and checked
    for finiteness on construction.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise MatrixShapeError(f"expected a nonempty 2-D array, got shape {arr.shape}")
        arr = np.array(arr, dtype=np.complex128, order="C")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise InvalidParameterError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def is_real(self, tol: float = REAL_TOL) -> bool:
        return float(np.abs(self.data.imag).max()) <= tol

    def is_hermitian(self, tol: float = REAL_TOL) -> bool:
        if self.rows != self.cols:
            return False
        scale = max(1.0, float(np.abs(self.data).max()))
        return float(np.abs(self.data - self.data.conj().T).max()) <= tol * scale

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(np.eye(n))


def gram(a: DenseMatrix) -> DenseMatrix:
    """Conjugate-transpose product A*A, symmetrized to be exactly Hermitian."""
    arr = a.data
    g = arr.conj().T @ arr
    g = 0.5 * (g + g.conj().T)
    return DenseMatrix(g)


def _require_square_hermitian(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.shape[0] != arr.shape[1]:
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


def _binary_power(a: np.ndarray, p: int) -> np.ndarray:
    result = None
    base = a
    e = p
    while e:
        if e & 1:
            result = base if result is None else result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def trace_power(h: DenseMatrix, p: int) -> float:
    """Tr[H^p] for Hermitian H and even positive p, by binary exponentiation."""
    if not isinstance(p, int) or p <= 0:
        raise UnsupportedExponentError(f"exponent must be a positive integer, got {p}")
    if p % 2 != 0:
        raise UnsupportedExponentError(f"only even exponents are supported, got {p}")
    sym = _require_square_hermitian(h.data, "trace_power")
    return float(np.trace(_binary_power(sym, p)).real)
