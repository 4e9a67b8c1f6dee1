"""Symmetric 3x3 tensor algebra: the symmetric part, the spectral
decomposition and the orthonormal basis of Sym(3) that the material,
stability and rate layers use.

Symmetric tensors are carried as plain numpy arrays of shape (3, 3); the six
basis elements are ordered (11, 22, 33, 12, 23, 31) (``basis6``).  Spectral
routines accept stacked input of shape (..., 3, 3).
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "EigenSystem3",
    "basis6",
    "eig_sym",
    "sym",
]

# Component order of basis6.
_IDX = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))

_SQRT2 = np.sqrt(2.0)


class EigenSystem3(NamedTuple):
    """Spectral data of a symmetric tensor: eigenvalues sorted descending,
    frame columns are the matching unit eigenvectors."""

    values: np.ndarray
    frame: np.ndarray


def sym(A):
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _require_finite(A):
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("tensor has non-finite entries")


def eig_sym(A) -> EigenSystem3:
    """Eigendecomposition of a symmetric tensor, eigenvalues descending.

    The reconstruction ``Q diag(d) Q^T`` matches the input to 1e-10*max(1, |A|)
    even for (near-)degenerate spectra, where the frame within a degenerate
    subspace is an arbitrary orthonormal completion.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (3, 3):
        raise InvalidInputError(f"expected (..., 3, 3) array, got {A.shape}")
    _require_finite(A)
    d, Q = np.linalg.eigh(sym(A))
    return EigenSystem3(d[..., ::-1], Q[..., ::-1])


def basis6() -> tuple:
    """Orthonormal basis of Sym(3): three diagonal units and three
    sqrt(2)-normalized off-diagonal units, ordered (11, 22, 33, 12, 23, 31)."""
    out = []
    for i, j in _IDX:
        E = np.zeros((3, 3))
        if i == j:
            E[i, j] = 1.0
        else:
            E[i, j] = E[j, i] = 1.0 / _SQRT2
        out.append(E)
    return tuple(out)
