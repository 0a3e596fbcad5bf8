"""Null hypotheses on the normal mean/concentration and their constrained fits.

Six null hypotheses are supported:

* :class:`ProportionalIdentity` -- covariance proportional to the identity;
* :class:`BlockIndependence`    -- block-diagonal concentration;
* :class:`EqualDistributions`   -- identical distribution across k groups;
* :class:`EqualCovariances`     -- common concentration across k groups;
* :class:`SpecifiedMeanCov`     -- fully specified mean and concentration;
* :class:`CompleteIndependence` -- diagonal concentration;

plus the general :class:`ZeroPattern` (prescribed zero entries of the
concentration matrix, fitted by damped Newton on the covariance-selection
problem: on the concentration when the free entries are fewer, on the
covariance when the zero pairs are).

Each class is the one place that states how its null differs from the
others: its degrees of freedom, its constrained estimates, whether it
compares groups, whether the mean is free, and its likelihood ratio
statistic.  :data:`HYPOTHESES` maps each case tag to its class.  Every
null is fitted on the data as given: the fully specified null, too, whose
constrained estimates are its own ``mu0`` and ``inv(lambda0)``.

A :class:`ConstrainedFit` bundles the per-group sufficient statistics with
the constrained estimates and the degrees of freedom ``d``, from which the
likelihood ratio statistic, the degeneracy flag and the correction factor
are computed.  For every null it also gives, on first use, the spectrum
that the directional test reads: each group's pencil eigenvalues and the
linear term of the log-integrand (:attr:`ConstrainedFit.spectrum`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import SampleSummary, check_estimate_exists, summarize
from .exceptions import (
    DimensionError,
    NoConvergenceError,
    NonFiniteError,
    NotPositiveDefiniteError,
)
from .linalg import SpdFactor, eig_pencil, symmetrize

__all__ = [
    "ProportionalIdentity",
    "BlockIndependence",
    "EqualDistributions",
    "EqualCovariances",
    "SpecifiedMeanCov",
    "CompleteIndependence",
    "ZeroPattern",
    "Hypothesis",
    "HYPOTHESES",
    "ConstrainedFit",
    "constrained_mle",
    "fit_hypothesis",
    "fit_zero_pattern",
]


class Hypothesis:
    """A null hypothesis: what this null states that the others do not.

    A subclass gives its degrees of freedom and its constrained estimates;
    the class attributes and the remaining methods hold the defaults of the
    one-sample covariance-pattern nulls, which a subclass overrides where
    it differs.  A new null is one more subclass, entered in
    :data:`HYPOTHESES`.
    """

    grouped = False  # compares two or more groups (c3, c4)
    # Each group's constrained mean is its sample mean (all but c3 and c5),
    # so its pencil is (A, V_g), unbordered: the fit's pencil_eigs.
    free_mean = True

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        """Number of constraints the hypothesis imposes on the free parameters."""
        raise NotImplementedError

    def estimates(self, summaries) -> tuple[SpdFactor, tuple[np.ndarray, ...]]:
        """Factor of the constrained covariance ``A``, shared by the groups,
        and the constrained mean of each group.

        One-sample nulls keep the sample mean and constrain the sample
        covariance by their ``covariance`` method.
        """
        (s,) = summaries
        return SpdFactor(self.covariance(s.mle_cov)), (s.ybar,)

    def lrt(self, fit: ConstrainedFit) -> float:
        """Likelihood ratio statistic reported for the hypothesis.

        This is ``fit.plain_w`` except for two nulls: equal covariances
        (c4) report the pooled variant built from bias-adjusted estimates,
        and the fully specified null (c5) weights ``log det(A^-1 V)`` by
        ``n - 1`` instead of ``n``.
        """
        return fit.plain_w


@dataclass(frozen=True)
class ProportionalIdentity(Hypothesis):
    """Covariance equal to an unspecified scalar times the identity."""

    tag = "c1"

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        return p * (p + 1) // 2 - 1

    def covariance(self, v: np.ndarray) -> np.ndarray:
        p = v.shape[0]
        return (np.trace(v) / p) * np.eye(p)


@dataclass(frozen=True)
class BlockIndependence(Hypothesis):
    """Independence between blocks of variables of the given sizes."""

    block_sizes: tuple[int, ...]
    tag = "c2"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise DimensionError("need at least two blocks, each of size >= 1")

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        sizes = self.block_sizes
        if sum(sizes) != p:
            raise DimensionError(f"block sizes {sizes} do not sum to p={p}")
        return p * (p + 1) // 2 - sum(s * (s + 1) // 2 for s in sizes)

    def covariance(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        start = 0
        for s in self.block_sizes:
            sl = slice(start, start + s)
            out[sl, sl] = v[sl, sl]
            start += s
        return out


@dataclass(frozen=True)
class EqualDistributions(Hypothesis):
    """Identical mean and concentration across independent groups."""

    tag = "c3"
    grouped = True
    free_mean = False

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        return p * (p + 3) * (k - 1) // 2

    def estimates(self, summaries):
        # within- plus between-group scatter: pooled second moments minus
        # the mean's outer product would lose digits to a large mean
        n = sum(s.n for s in summaries)
        ybar = sum(s.n * s.ybar for s in summaries) / n
        scatter = sum(s.n * s.mle_cov + s.n * np.outer(s.ybar - ybar, s.ybar - ybar) for s in summaries)
        return SpdFactor(symmetrize(scatter / n)), tuple(ybar for _ in summaries)


@dataclass(frozen=True)
class EqualCovariances(Hypothesis):
    """Common concentration across independent groups, means free."""

    tag = "c4"
    grouped = True

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        return p * (p + 1) * (k - 1) // 2

    def estimates(self, summaries):
        pooled = sum(s.n * s.mle_cov for s in summaries) / sum(s.n for s in summaries)
        return SpdFactor(symmetrize(pooled)), tuple(s.ybar for s in summaries)

    def lrt(self, fit: ConstrainedFit) -> float:
        """Pooled variant with divisors ``n_g - 1`` and ``n - k``, the form
        whose chi-square approximation is customarily reported.  The pooled
        covariance is ``A n / (n - k)`` and group ``g``'s is
        ``V_g n_g / (n_g - 1)``, so both log-determinants follow from the
        factors the fit already holds."""
        n, p = fit.n_total, fit.p
        ld0 = fit.a_factor.log_det + p * np.log(n / (n - fit.k))
        return float(sum((s.n - 1) * (ld0 - s.cov_factor.log_det - p * np.log(s.n / (s.n - 1)))
                         for s in fit.summaries))


@dataclass(frozen=True, eq=False)
class SpecifiedMeanCov(Hypothesis):
    """Fully specified mean vector and concentration matrix.

    ``lambda0`` is the *concentration* under the null, not the covariance.
    Its inverse, the constrained covariance of every fit, is factored once
    per hypothesis (``cov0``), which raises ``NotPositiveDefiniteError``
    for a ``lambda0`` that is not positive definite and
    ``NonFiniteError`` for NaN or infinite entries of either parameter.
    """

    mu0: np.ndarray
    lambda0: np.ndarray
    cov0: SpdFactor = field(init=False, repr=False)
    tag = "c5"
    free_mean = False

    def __post_init__(self):
        mu0 = np.atleast_1d(np.array(self.mu0, dtype=float))
        lambda0 = np.asarray(self.lambda0, dtype=float)
        if lambda0.shape != (mu0.shape[0], mu0.shape[0]):
            raise DimensionError("lambda0 must be p x p with p = len(mu0)")
        for name, value in (("mu0", mu0), ("lambda0", lambda0)):
            if not np.all(np.isfinite(value)):
                raise NonFiniteError(f"{name} contains NaN or infinite entries")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "lambda0", symmetrize(lambda0))
        cov0 = SpdFactor(SpdFactor(self.lambda0).inv)
        for m in (cov0.matrix, cov0.chol, cov0.chol_inv, cov0.inv):
            m.flags.writeable = False  # every fit shares them
        object.__setattr__(self, "cov0", cov0)

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        return p * (p + 3) // 2

    def estimates(self, summaries):
        (s,) = summaries
        if self.mu0.shape[0] != s.p:
            raise DimensionError(f"hypothesis is {self.mu0.shape[0]}-dimensional, data has p={s.p}")
        return self.cov0, (self.mu0,)

    def lrt(self, fit: ConstrainedFit) -> float:
        """``fit.plain_w`` plus ``log det V - log det A``:
        ``-(n - 1) log det(A^-1 V) + n tr(A^-1 M) - n p`` with ``A`` the
        null covariance, ``V`` the sample covariance and ``M = V + b b'``
        for ``b = ybar - mu0``.  It can be negative: at ``n = p + 2`` and
        ``p = 1`` it is for about 8% of null samples.  Such a fit is not
        degenerate, but its classical p-values are 1 (see
        ``classical_report``).
        """
        return fit.plain_w + fit.summaries[0].cov_factor.log_det - fit.a_factor.log_det


@dataclass(frozen=True)
class CompleteIndependence(Hypothesis):
    """Diagonal concentration (all correlations zero)."""

    tag = "c6"

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        return p * (p - 1) // 2

    def covariance(self, v: np.ndarray) -> np.ndarray:
        return np.diag(np.diag(v))


@dataclass(frozen=True)
class ZeroPattern(Hypothesis):
    """Prescribed zero entries of the concentration matrix.

    ``zero_pairs`` holds 0-based off-diagonal index pairs ``(i, j)`` with
    ``i < j``; each pair constrains both symmetric entries to zero.
    """

    zero_pairs: tuple[tuple[int, int], ...]
    tag = "pattern"

    def __post_init__(self):
        pairs = []
        for i, j in self.zero_pairs:
            i, j = int(i), int(j)
            if i == j:
                raise DimensionError("zero pattern must not constrain diagonal entries")
            pairs.append((min(i, j), max(i, j)))
        pairs = tuple(sorted(set(pairs)))
        object.__setattr__(self, "zero_pairs", pairs)

    def mask(self, p: int) -> np.ndarray:
        """Boolean ``p x p`` matrix, True where the concentration is forced to zero."""
        m = np.zeros((p, p), dtype=bool)
        for i, j in self.zero_pairs:
            if j >= p:
                raise DimensionError(f"zero pair {(i, j)} out of range for p={p}")
            m[i, j] = m[j, i] = True
        return m

    def degrees_of_freedom(self, p: int, k: int = 1) -> int:
        self.mask(p)  # range check
        return len(self.zero_pairs)

    def covariance(self, v: np.ndarray) -> np.ndarray:
        # constrained_mle has found v positive definite already
        return fit_zero_pattern(v, self.zero_pairs, check=False)


# Every null, keyed by its case tag.
HYPOTHESES = {
    cls.tag: cls
    for cls in (
        ProportionalIdentity,
        BlockIndependence,
        EqualDistributions,
        EqualCovariances,
        SpecifiedMeanCov,
        CompleteIndependence,
        ZeroPattern,
    )
}


# Rounding allowance of the degeneracy test in units of n_total p eps: exact
# degeneracy measured up to 143, null draws at n = p + 2 no lower than 2e6.
DEGENERATE_ROUNDING = 1000.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ConstrainedFit:
    """Constrained maximum likelihood fit of a hypothesis.

    Attributes
    ----------
    hypothesis : Hypothesis
        The null being fitted.
    summaries : tuple of SampleSummary
        Per-group sufficient statistics (length 1 for one-sample cases).
    a_factor : SpdFactor
        Factor of the constrained covariance ``A``, shared across groups:
        the one factorization of ``A`` that the likelihood ratio statistic,
        the correction factor, the pencil whitening of every group, the
        directional integrand and the bootstrap draws share.
    mu0 : tuple of ndarray
        Per-group constrained mean estimates.
    d : int
        Degrees of freedom of the hypothesis.
    """

    hypothesis: Hypothesis
    summaries: tuple[SampleSummary, ...]
    a_factor: SpdFactor
    mu0: tuple[np.ndarray, ...]
    d: int

    @functools.cached_property
    def plain_w(self) -> float:
        """Unadjusted twice log-likelihood drop of the constrained fit (Anderson
        2003, ch. 10), computed on first use:
        ``sum_g n_g (log det A - log det V_g + tr(A^-1 M_g) - p)`` with ``A``
        the constrained covariance, ``V_g`` the group's covariance,
        ``M_g = V_g + b_g b_g'`` and ``b_g = ybar_g - mu0_g``.  The trace term
        is 0 by the score equation of every null but c5."""
        a_inv, ld_a = self.a_factor.inv, self.a_factor.log_det
        w = 0.0
        for s, mu in zip(self.summaries, self.mu0):
            b = s.ybar - mu
            trace = float(np.sum(a_inv * s.mle_cov)) + float(b @ a_inv @ b)
            w += s.n * (ld_a - s.cov_factor.log_det + trace - s.p)
        return w

    @functools.cached_property
    def degenerate(self) -> bool:
        """Whether the observed data sit at the null expectation, where every
        test reports ``p = 1``: group ``g`` adds ``n_g`` times twice the
        Kullback-Leibler divergence of ``N(ybar_g, V_g)`` from ``N(mu0_g, A)``
        to :attr:`plain_w`, which is therefore 0 exactly when every
        ``V_g = A`` and ``b_g = 0``, and positive otherwise."""
        return self.plain_w <= DEGENERATE_ROUNDING * self.n_total * self.p * _EPS

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, float]:
        """Each group's pencil eigenvalues ``mu`` (read-only, a row a group)
        and the directional log-integrand's linear term ``slope``, on first use.

        For the free-mean nulls group ``g``'s tilted covariance is
        ``(1 - t) A + t V_g``, ``mu`` are the ``(A, V_g)`` pencil eigenvalues,
        shape ``(k, p)``, and ``slope = 0.5 sum_g n_g (p - tr(A^-1 M_g))`` is
        exactly 0, by the score equation rather than as a fit's residual.
        For c3 and c5 it is ``(1 - t) A + t M_g - t**2 b_g b_g'``, with
        ``b_g`` the group mean less its constrained mean and
        ``M_g = V_g + b_g b_g'``: the Schur complement of the unit corner of
        ``(1 - t) diag(A, 1) + t [[M_g, b_g], [b_g', 1]]``.  That bordered
        pencil has the same determinant and is positive definite for the
        same ``t``: ``mu`` are its ``p + 1`` eigenvalues, shape ``(k, p + 1)``,
        whitened by ``diag(L^-1, 1)`` for ``A = L L'``, and row ``g`` sums to
        ``1 + tr(A^-1 M_g)``, which gives the slope.
        """
        if self.hypothesis.free_mean:
            mu, slope = np.array([eig_pencil(self.a_factor.chol_inv, s.mle_cov) for s in self.summaries]), 0.0
        else:
            p, corner = self.p, np.ones((1, 1))
            factor = np.block([[self.a_factor.chol_inv, np.zeros((p, 1))], [np.zeros((1, p)), corner]])
            bs = [(s.ybar - mu0)[:, None] for s, mu0 in zip(self.summaries, self.mu0)]
            mu = np.array([eig_pencil(factor, np.block([[s.mle_cov + b @ b.T, b], [b.T, corner]]))
                           for s, b in zip(self.summaries, bs)])
            slope = 0.5 * sum(s.n * (p + 1 - float(np.sum(m))) for s, m in zip(self.summaries, mu))
        mu.flags.writeable = False  # every evaluator of the fit shares it
        return mu, slope

    @property
    def pencil_eigs(self) -> np.ndarray | None:
        """The rows of :attr:`spectrum` for the nulls whose mean is free,
        each group's ``(A, V_g)`` pencil eigenvalues; ``None`` for the others."""
        return self.spectrum[0] if self.hypothesis.free_mean else None

    @property
    def lambda0_inv(self) -> np.ndarray:
        """Constrained covariance estimate ``A``."""
        return self.a_factor.matrix

    @property
    def k(self) -> int:
        return len(self.summaries)

    @property
    def p(self) -> int:
        return self.summaries[0].p

    @property
    def n_total(self) -> int:
        return sum(s.n for s in self.summaries)


# Convergence tolerance of the zero-pattern fit (see fit_zero_pattern).
PATTERN_TOL = 1e-12


def fit_zero_pattern(
    mle_cov: np.ndarray,
    zero_pairs: Sequence[tuple[int, int]],
    *,
    check: bool = True,
) -> np.ndarray:
    """Constrained covariance estimate under a concentration zero pattern.

    Maximizes ``log det K - tr(S K)`` over concentrations ``K`` that vanish
    on the pattern (Dempster's covariance selection), so the fit equals
    ``S`` on the diagonal and the free pairs.  Damped Newton
    (:func:`_newton_logdet`) solves it on the correlation scale
    ``R = D S D``, ``D = diag(S)^-1/2``, in whichever form has fewer
    unknowns, the primal on a tie: the primal moves ``K`` on the diagonal
    and the free pairs from the identity, and the fit is ``inv(K)``; the
    dual moves the covariance on the zero pairs from ``R`` to maximize its
    log-determinant, and the fit is that covariance.

    ``PATTERN_TOL`` bounds each remaining gradient entry divided by its
    weight and by ``sqrt(Y_ii Y_jj)``: a correlation mismatch in the
    primal, a fitted partial correlation in the dual.  Raises
    ``NotPositiveDefiniteError`` for a ``mle_cov`` that is not positive
    definite and ``NoConvergenceError`` at the iteration cap.
    ``check=False`` skips the positive definiteness test, a Cholesky
    factorization, for a caller that has made it already.
    """
    s = symmetrize(np.asarray(mle_cov, dtype=float))
    p = s.shape[0]
    if check:
        try:
            SpdFactor(s)
        except NotPositiveDefiniteError:
            raise NotPositiveDefiniteError("sample covariance is not positive definite") from None
    zero = ZeroPattern(tuple((i, j) for i, j in zero_pairs)).mask(p) if zero_pairs else np.zeros((p, p), bool)
    if not zero.any():
        return s.copy()

    scale = np.sqrt(np.diag(s))
    r = s / np.outer(scale, scale)
    rows, cols = np.nonzero(np.triu(zero))
    if rows.size < p + (p * (p - 1) // 2 - rows.size):
        fit, _ = _newton_logdet(r, np.zeros((p, p)), rows, cols)
    else:
        rows, cols = np.nonzero(np.triu(~zero))
        _, fit = _newton_logdet(np.eye(p), r, rows, cols)
    return fit * np.outer(scale, scale)


# Iteration cap of the zero-pattern fit.  Damped Newton takes about ten
# steps on well-conditioned data and took up to 61 at n = p + 2, p <= 90.
_MAX_NEWTON_STEPS = 200


def _newton_logdet(x, target, rows, cols):
    """Minimize ``-log det X + <target, X>`` over symmetric ``X`` that moves
    only on the entries ``(rows, cols)``, ``rows <= cols``, from the positive
    definite start ``x``, which is updated in place.  Returns ``X`` and its
    inverse.

    In the coordinates of those entries the gradient is ``w (target - Y)``
    with ``Y = inv(X)`` and weight ``w`` 2 off the diagonal and 1 on it, and
    the Hessian is ``(Y_ik Y_jl + Y_il Y_jk) w_a w_b / 2`` for entries
    ``a = (i, j)`` and ``b = (k, l)``.  The objective is self-concordant, so
    the damped step ``1 / (1 + lambda)`` for a Newton decrement
    ``lambda >= 1/4``, and the full step below it, keep every iterate
    positive definite and converge quadratically near the solution.
    """
    w = np.where(rows == cols, 1.0, 2.0)
    half_ww = 0.5 * np.outer(w, w)
    t = target[rows, cols]
    for _ in range(_MAX_NEWTON_STEPS):
        y = SpdFactor(x).inv
        resid = t - y[rows, cols]
        root = np.sqrt(np.diag(y))
        if np.max(np.abs(resid) / (root[rows] * root[cols])) <= PATTERN_TOL:
            return x, y
        grad = w * resid
        hess = (y[np.ix_(rows, rows)] * y[np.ix_(cols, cols)]
                + y[np.ix_(rows, cols)] * y[np.ix_(cols, rows)]) * half_ww
        step = cho_solve(cho_factor(hess), -grad)
        decrement = np.sqrt(max(-float(grad @ step), 0.0))
        if decrement >= 0.25:
            step /= 1.0 + decrement
        x[rows, cols] += step
        x[cols, rows] = x[rows, cols]
    raise NoConvergenceError(f"zero-pattern fit did not converge in {_MAX_NEWTON_STEPS} Newton steps")


# Largest squared Cholesky pivot of a singular sample covariance, relative to
# its diagonal entry (1 - R^2 of a variable on those before it): a collinear
# sample leaves about 1e-15 for a duplicated column, more for a combination
# of columns on different scales, where the factorization need not fail.
_MIN_PIVOT_RATIO = 1e-10


def constrained_mle(hypothesis: Hypothesis, summaries: Sequence[SampleSummary]) -> ConstrainedFit:
    """Constrained maximum likelihood estimates under the hypothesis.

    ``summaries`` holds one entry per group; one-sample hypotheses require
    exactly one.  This is the one check of a fit's input: it raises
    ``DimensionError`` for a wrong number of groups, groups of unequal
    ``p`` or a group with ``n < p + 2``, and ``NotPositiveDefiniteError``
    when an estimate is singular.
    """
    summaries = tuple(summaries)
    if not summaries:
        raise DimensionError("need at least one sample summary")
    p = summaries[0].p
    if any(s.p != p for s in summaries):
        raise DimensionError("all groups must share the same number of variables")
    k = len(summaries)
    if hypothesis.grouped:
        if k < 2:
            raise DimensionError(f"{type(hypothesis).__name__} requires at least two groups")
    elif k != 1:
        raise DimensionError(f"{type(hypothesis).__name__} is a one-sample hypothesis")

    d = hypothesis.degrees_of_freedom(p, k)
    for s in summaries:
        check_estimate_exists(s.n, s.p)
        try:
            singular = np.min(np.diag(s.cov_factor.chol) ** 2 / np.diag(s.mle_cov)) <= _MIN_PIVOT_RATIO
        except NotPositiveDefiniteError:  # no factor at all
            singular = True
        if singular:
            raise NotPositiveDefiniteError(
                "sample covariance is singular: the unconstrained MLE does not exist")
    try:
        a_factor, mu0 = hypothesis.estimates(summaries)
    except NotPositiveDefiniteError:
        raise NotPositiveDefiniteError("constrained covariance estimate is not positive definite") from None
    return ConstrainedFit(hypothesis=hypothesis, summaries=summaries, a_factor=a_factor, mu0=mu0, d=d)


def fit_hypothesis(hypothesis: Hypothesis, data) -> ConstrainedFit:
    """Fit a hypothesis directly from raw data.

    ``data`` is a single observations-by-variables matrix for one-sample
    hypotheses and a sequence of such matrices for the group hypotheses.
    :func:`summarize` checks each matrix, :func:`constrained_mle` the
    groups together.
    """
    groups = data if hypothesis.grouped else [data]
    return constrained_mle(hypothesis, [summarize(g) for g in groups])
