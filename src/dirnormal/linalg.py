"""Dense symmetric positive definite (SPD) linear algebra primitives.

All routines operate on plain ``numpy`` float arrays.  Matrices that are
required to be SPD are symmetrized as ``(M + M.T) / 2`` where they are
constructed, so accumulated asymmetric rounding never reaches a Cholesky
factorization.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import lapack

from .exceptions import NotPositiveDefiniteError

__all__ = [
    "symmetrize",
    "SpdFactor",
    "eig_pencil",
]


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return ``(m + m.T) / 2``."""
    return 0.5 * (m + m.T)


class SpdFactor:
    """The one Cholesky factorization ``matrix = chol @ chol.T`` of an SPD
    matrix, and what every reader derives from it, each computed once on
    first use.

    Raises ``NotPositiveDefiniteError`` when the factorization fails, i.e.
    ``matrix`` is not positive definite.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        try:
            self.chol = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc

    @functools.cached_property
    def chol_inv(self) -> np.ndarray:
        """``L^-1`` from LAPACK's triangular inverse (under half the cost
        of a general solve)."""
        ell_inv, _ = lapack.dtrtri(self.chol, lower=1)
        return ell_inv

    @functools.cached_property
    def log_det(self) -> float:
        """``2 sum log diag(L)``, stable for the ill-conditioned matrices of
        near-boundary parameter paths."""
        return float(2.0 * np.sum(np.log(np.diag(self.chol))))

    @functools.cached_property
    def inv(self) -> np.ndarray:
        """``L^-T L^-1``, symmetrized."""
        return symmetrize(self.chol_inv.T @ self.chol_inv)


def eig_pencil(a_chol_inv: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the ``(A, m)`` pencil, i.e. of ``inv(A) @ m``, ascending.

    ``a_chol_inv`` is :attr:`SpdFactor.chol_inv` of ``A``, so one
    factorization of ``A`` serves every pencil that shares it.  Both
    matrices must be SPD.  The product is similar to the symmetric matrix
    ``L^-1 @ m @ L^-T``, so the eigenvalues are real and positive and no
    nonsymmetric eigensolver is needed.  They are invariant under a
    simultaneous congruence of ``A`` and ``m``.
    """
    try:
        return np.linalg.eigvalsh(symmetrize(a_chol_inv @ m @ a_chol_inv.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvalsh rarely fails
        raise NotPositiveDefiniteError(str(exc)) from exc
