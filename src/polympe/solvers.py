"""Sparse LU factorization with fill-reducing ordering (SuperLU via scipy)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class NumericalError(Exception):
    """A solve failed numerically: a singular matrix, or a residual too large
    to trust the solution."""


class SingularMatrixError(NumericalError):
    """Matrix is structurally or numerically singular."""


class Factorization:
    """Immutable LU factorization; concurrent solves are safe."""

    def __init__(self, lu, n):
        self._lu = lu
        self.n = n

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has length {b.shape[0]}, expected {self.n}")
        return self._lu.solve(b)


def factorize(A) -> Factorization:
    """LU with partial pivoting and COLAMD column ordering."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is not square: {A.shape}")
    try:
        lu = splu(A)
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SingularMatrixError(str(exc)) from exc
    return Factorization(lu, A.shape[0])
