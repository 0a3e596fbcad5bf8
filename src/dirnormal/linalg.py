"""Dense symmetric positive definite (SPD) linear algebra primitives.

All routines operate on plain ``numpy`` float arrays.  Matrices that are
required to be SPD are symmetrized as ``(M + M.T) / 2`` where they are
constructed, so accumulated asymmetric rounding never reaches a Cholesky
factorization.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .exceptions import NotPositiveDefiniteError

__all__ = [
    "symmetrize",
    "spd_cholesky",
    "is_positive_definite",
    "cholesky_log_det",
    "log_det_spd",
    "inv_from_cholesky",
    "inv_spd",
    "inv_cholesky",
    "eig_pencil",
]


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return ``(m + m.T) / 2``."""
    return 0.5 * (m + m.T)


def spd_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``L @ L.T == m``.

    Raises
    ------
    NotPositiveDefiniteError
        If the factorization fails, i.e. ``m`` is not positive definite.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def is_positive_definite(m: np.ndarray) -> bool:
    """Whether the Cholesky factorization of ``m`` succeeds."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def cholesky_log_det(ell: np.ndarray) -> float:
    """Log-determinant ``2 * sum(log(diag(L)))`` of ``L @ L.T`` from its lower
    Cholesky factor ``L``, stable for the ill-conditioned matrices produced
    by near-boundary parameter paths."""
    return float(2.0 * np.sum(np.log(np.diag(ell))))


def log_det_spd(m: np.ndarray) -> float:
    """Log-determinant of an SPD matrix via its Cholesky factor."""
    return cholesky_log_det(spd_cholesky(m))


def inv_from_cholesky(ell: np.ndarray) -> np.ndarray:
    """Inverse ``L^-T L^-1`` of ``L @ L.T``, symmetrized, with ``L^-1`` from
    LAPACK's triangular inverse (under half the cost of a general solve)."""
    ell_inv, _ = lapack.dtrtri(ell, lower=1)
    return symmetrize(ell_inv.T @ ell_inv)


def inv_spd(m: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix (see :func:`inv_from_cholesky`)."""
    return inv_from_cholesky(spd_cholesky(m))


def inv_cholesky(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(L^-1, log det m)`` for the lower Cholesky factor ``m = L L'``.

    ``L^-1`` comes from LAPACK's triangular inverse.  Raises
    ``NotPositiveDefiniteError`` when ``m`` is not positive definite.
    """
    ell = spd_cholesky(m)
    ell_inv, _ = lapack.dtrtri(ell, lower=1)
    return ell_inv, cholesky_log_det(ell)


def eig_pencil(a_chol_inv: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the ``(A, m)`` pencil, i.e. of ``inv(A) @ m``, ascending.

    ``a_chol_inv`` is ``L^-1`` for the Cholesky factor ``A = L L'`` (see
    :func:`inv_cholesky`), so one factorization of ``A`` serves every
    pencil that shares it.  Both matrices must be SPD.  The product is
    similar to the symmetric matrix ``L^-1 @ m @ L^-T``, so the eigenvalues
    are real and positive and no nonsymmetric eigensolver is needed.  They
    are invariant under a simultaneous congruence of ``A`` and ``m``.
    """
    try:
        return np.linalg.eigvalsh(symmetrize(a_chol_inv @ m @ a_chol_inv.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvalsh rarely fails
        raise NotPositiveDefiniteError(str(exc)) from exc
