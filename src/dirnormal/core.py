"""Multivariate-normal sufficient statistics and samplers.

The model is ``y_1, ..., y_n`` i.i.d. ``N_p(mu, inv(Lambda))`` with
concentration matrix ``Lambda``.  The canonical parameterization pairs
``xi = Lambda @ mu`` with ``vech(Lambda)``; all higher-level statistics in
this package are expressed through the per-sample moments collected in
:class:`SampleSummary`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NonFiniteError
from .linalg import SpdFactor, symmetrize

__all__ = [
    "SampleSummary",
    "check_estimate_exists",
    "summarize",
    "sample_groups",
]

# Fewest observations a sample may have (a mean and a covariance need two).
MIN_ROWS = 2


@dataclass(frozen=True, eq=False)
class SampleSummary:
    """Sufficient statistics of one sample.

    Attributes
    ----------
    n, p : int
        Number of observations and of variables.
    ybar : ndarray, shape (p,)
        Sample mean.
    mle_cov : ndarray, shape (p, p)
        Maximum likelihood covariance, from the centered rows; the
        estimate of ``inv(Lambda)``.
    """

    n: int
    p: int
    ybar: np.ndarray
    mle_cov: np.ndarray

    @functools.cached_property
    def cov_factor(self) -> SpdFactor:
        """Cholesky factor of ``mle_cov``, the one factorization that every
        reader of the summary shares, computed on first use."""
        return SpdFactor(self.mle_cov)


def check_estimate_exists(n: int, p: int) -> None:
    """Require ``n >= p + 2``, the condition for a nondegenerate fit.

    ``n >= p + 1`` makes the covariance estimate invertible with probability
    one; the extra observation keeps the exponent ``(n - p - 2)/2`` of the
    tilted density nonnegative.
    """
    if n < p + 2:
        raise DimensionError(f"need n >= p + 2 observations per group (got n={n}, p={p})")


def summarize(data: np.ndarray) -> SampleSummary:
    """Compute the sufficient statistics of a sample.

    Rows are observations, columns variables.  Raises ``NonFiniteError`` on
    NaN/Inf entries and ``DimensionError`` on wrong shape or fewer than
    ``MIN_ROWS`` rows.

    Notes
    -----
    A degenerate sample (e.g. identical rows) yields a positive
    semidefinite ``mle_cov``; positive definiteness is checked downstream
    where an invertible estimate is actually required.  The covariance is
    taken from the centered rows: the second moment minus the mean's
    outer product would lose about ``log10(mean**2 / variance)`` digits
    to a large mean.
    """
    y = np.asarray(data, dtype=float)
    if y.ndim != 2:
        raise DimensionError(f"data must be a 2-d observations-by-variables matrix, got ndim={y.ndim}")
    if y.shape[0] < MIN_ROWS:
        raise DimensionError(f"need at least {MIN_ROWS} observations, got {y.shape[0]}")
    if y.shape[1] < 1:
        raise DimensionError("data must have at least one column")
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("data contain NaN or infinite entries")
    n, p = y.shape
    ybar = y.mean(axis=0)
    centered = y - ybar
    return SampleSummary(n=n, p=p, ybar=ybar, mle_cov=symmetrize(centered.T @ centered / n))


def sample_groups(factors, sizes, seed) -> list[np.ndarray]:
    """Draw group ``g`` as ``sizes[g]`` i.i.d. ``N_p(mu_g, L_g L_g')`` rows,
    for ``(mu_g, L_g)`` in ``factors``, the groups in order from one stream.

    ``seed`` (an int, a sequence of ints or a ``numpy.random.SeedSequence``)
    keys a counter-based generator; equal keys give bit-identical samples,
    so independent streams can be derived per replication.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    return [mu + rng.standard_normal((n, mu.shape[0])) @ ell.T for (mu, ell), n in zip(factors, sizes)]
