"""The shared tolerance and the Gram product behind every frame.

Frames store their matrix as read-only complex128 ndarrays; real matrices
are the special case whose imaginary part vanishes, which ``Frame.is_real``
reports. This module holds only ``DEFAULT_TOL``, the one tolerance of the
realness and tight-frame checks, and ``gram``. Spectra, norms and matrix
powers are numpy/LAPACK calls at their point of use.
"""

from __future__ import annotations

import numpy as np

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
