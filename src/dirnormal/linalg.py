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
    "spd_cholesky",
    "is_positive_definite",
    "log_det_spd",
    "inv_spd",
    "inv_and_log_det_spd",
    "inv_cholesky",
    "vech",
    "vech_indices",
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


def log_det_spd(m: np.ndarray) -> float:
    """Log-determinant of an SPD matrix via its Cholesky factor.

    Equals ``2 * sum(log(diag(L)))`` for the lower factor ``L``, which is
    stable for the ill-conditioned matrices produced by near-boundary
    parameter paths.
    """
    ell = spd_cholesky(m)
    return float(2.0 * np.sum(np.log(np.diag(ell))))


def inv_spd(m: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix, symmetrized on output."""
    return inv_and_log_det_spd(m)[0]


def inv_and_log_det_spd(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of an SPD matrix from one Cholesky factor.

    The inverse is ``L^-T L^-1`` with ``L^-1`` from :func:`inv_cholesky`,
    at less than half the cost of a general solve against the identity for
    ``p <= 90``; the log-determinant equals :func:`log_det_spd` exactly.
    """
    ell_inv, log_det = inv_cholesky(m)
    return symmetrize(ell_inv.T @ ell_inv), log_det


def inv_cholesky(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(L^-1, log det m)`` for the lower Cholesky factor ``m = L L'``.

    ``L^-1`` comes from LAPACK's triangular inverse; the log-determinant
    equals :func:`log_det_spd` exactly.  Raises ``NotPositiveDefiniteError``
    when ``m`` is not positive definite.
    """
    ell = spd_cholesky(m)
    ell_inv, _ = lapack.dtrtri(ell, lower=1)
    return ell_inv, float(2.0 * np.sum(np.log(np.diag(ell))))


@functools.lru_cache(maxsize=64)
def vech_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the lower triangle in column-major order,
    read-only and cached per ``p``.

    The ordering matches the classical half-vectorization: stack the
    columns of the lower triangle, i.e. (1,1), (2,1), ..., (p,1), (2,2), ...
    """
    rows, cols = np.tril_indices(p)
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def vech(m: np.ndarray) -> np.ndarray:
    """Half-vectorization of a symmetric matrix (column-major lower triangle)."""
    m = np.asarray(m)
    rows, cols = vech_indices(m.shape[0])
    return m[rows, cols]


def eig_pencil(a_chol_inv: np.ndarray, m: np.ndarray, b: np.ndarray | None = None):
    """Eigenvalues of the ``(A, m)`` pencil, i.e. of ``inv(A) @ m``, ascending.

    ``a_chol_inv`` is ``L^-1`` for the Cholesky factor ``A = L L'`` (see
    :func:`inv_cholesky`), so one factorization of ``A`` serves every
    pencil that shares it.  Both matrices must be SPD.  The product is
    similar to the symmetric matrix ``L^-1 @ m @ L^-T``, so the eigenvalues
    are real and positive and no nonsymmetric eigensolver is needed.  They
    are invariant under a simultaneous congruence of ``A`` and ``m``.

    Given a vector ``b``, returns ``(mu, c)`` with ``c = Q' L^-1 b`` for the
    eigenvectors ``Q`` of that symmetric matrix.
    """
    sym = symmetrize(a_chol_inv @ m @ a_chol_inv.T)
    try:
        if b is None:
            return np.linalg.eigvalsh(sym)
        mu, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvalsh rarely fails
        raise NotPositiveDefiniteError(str(exc)) from exc
    return mu, q.T @ (a_chol_inv @ b)
