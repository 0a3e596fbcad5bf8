"""Independent oracles used to verify derived quantities.

Everything here is deliberately naive and self-contained: block matrices
are assembled explicitly, likelihoods are maximized by a generic optimizer,
integrals are dense trapezoid sums.  Production code must agree with these,
never the other way around.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.linalg import lapack
from scipy.optimize import brentq, minimize

from dirnormal.directional import ENDPOINT_DROP, DirectionalEvaluator
from dirnormal.exceptions import NoConvergenceError, NotPositiveDefiniteError, ParseError
from dirnormal.hypotheses import ZeroPattern

# Nothing here comes from dirnormal.linalg: the oracles factor with numpy
# and LAPACK directly, so a fault in the engine's factor cannot hide in them.
try:
    trapezoid = np.trapezoid
except AttributeError:  # numpy < 2
    trapezoid = np.trapz


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def is_positive_definite(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


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


def duplication_matrix(p: int) -> np.ndarray:
    """The ``p**2 x p(p+1)/2`` matrix ``D`` with ``D @ vech(M) = vec(M)``.

    ``vec`` stacks columns; ``M`` must be symmetric for the identity to hold.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rows, cols = vech_indices(p)
    dup = np.zeros((p * p, p * (p + 1) // 2))
    for k, (i, j) in enumerate(zip(rows, cols)):
        dup[i + j * p, k] = 1.0
        dup[j + i * p, k] = 1.0
    return dup


def naive_det(m: np.ndarray) -> float:
    """Cofactor-expansion determinant (exponential time; small matrices)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    rest = m[1:]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += (-1.0) ** j * m[0, j] * naive_det(minor)
    return total


def info_matrix(xi: np.ndarray, lam_inv: np.ndarray, n: int) -> np.ndarray:
    """Observed information for the canonical parameter, assembled from its
    printed blocks with the duplication matrix."""
    p = len(xi)
    dup = duplication_matrix(p)
    lam_inv = np.asarray(lam_inv, dtype=float)
    xi = np.asarray(xi, dtype=float)
    j11 = n * lam_inv
    j12 = -n * np.kron((xi @ lam_inv)[None, :], lam_inv) @ dup
    inner = lam_inv @ (np.eye(p) + 2.0 * np.outer(xi, xi) @ lam_inv)
    j22 = 0.5 * n * dup.T @ np.kron(inner, lam_inv) @ dup
    return np.vstack([np.hstack([j11, j12]), np.hstack([j12.T, j22])])


def info_log_det(concentration: np.ndarray, n: int) -> float:
    """Log-determinant of the observed information in the canonical scale.

    For ``n`` observations in ``p`` dimensions the determinant equals
    ``n**(p(p+3)/2) * 2**-p * det(Lambda)**-(p+2)``, independent of ``xi``;
    this returns its logarithm using a Cholesky log-determinant.
    """
    lam = np.asarray(concentration, dtype=float)
    p = lam.shape[0]
    log_det = float(2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(lam)))))
    return float(0.5 * p * (p + 3) * np.log(n) - p * np.log(2.0) - (p + 2) * log_det)


def second_moment(summary) -> np.ndarray:
    """``y.T @ y / n`` of the summarized sample: its covariance plus the
    mean's outer product."""
    return summary.mle_cov + np.outer(summary.ybar, summary.ybar)


def dtvec(m: np.ndarray) -> np.ndarray:
    """``D.T @ vec(m)`` (column-major vec)."""
    dup = duplication_matrix(m.shape[0])
    return dup.T @ np.asarray(m, dtype=float).flatten(order="F")


def canonical_loglik(xi: np.ndarray, lam: np.ndarray, summary) -> float:
    """Log-likelihood in the canonical parameterization (2*pi terms dropped)."""
    n = summary.n
    sign, logdet = np.linalg.slogdet(lam)
    assert sign > 0
    return float(
        n * xi @ summary.ybar
        - 0.5 * n * np.sum(lam * second_moment(summary))
        + 0.5 * n * logdet
        - 0.5 * n * xi @ np.linalg.solve(lam, xi)
    )


def brute_log_gamma(fit) -> float:
    """Large-deviation correction factor assembled from stacked blocks.

    Uses only the generic exponential-family expression: the centered
    statistic shift, the parameter-estimate difference, and the full
    block-diagonal information matrices at both estimates.
    """
    blocks_v, blocks_dphi, js_psi, js_hat = [], [], [], []
    for s, mu0 in zip(fit.summaries, fit.mu0):
        n = s.n
        lam_hat = np.linalg.inv(s.mle_cov)
        lam0 = np.linalg.inv(fit.lambda0_inv)
        xi_hat = lam_hat @ s.ybar
        xi_0 = lam0 @ mu0
        v_mean = n * (s.ybar - mu0)
        v_vech = 0.5 * n * dtvec(fit.lambda0_inv + np.outer(mu0, mu0) - second_moment(s))
        blocks_v.append(np.concatenate([v_mean, v_vech]))
        blocks_dphi.append(np.concatenate([xi_hat - xi_0, vech(lam_hat) - vech(lam0)]))
        js_psi.append(info_matrix(xi_0, fit.lambda0_inv, n))
        js_hat.append(info_matrix(xi_hat, s.mle_cov, n))

    v = np.concatenate(blocks_v)
    dphi = np.concatenate(blocks_dphi)
    q = len(v)
    j_psi = np.zeros((q, q))
    j_hat = np.zeros((q, q))
    off = 0
    for jp, jh in zip(js_psi, js_hat):
        m = jp.shape[0]
        j_psi[off:off + m, off:off + m] = jp
        j_hat[off:off + m, off:off + m] = jh
        off += m

    w = fit.plain_w
    quad = float(v @ np.linalg.solve(j_psi, v))
    inner = float(dphi @ v)
    ld_psi = np.linalg.slogdet(j_psi)[1]
    ld_hat = np.linalg.slogdet(j_hat)[1]
    d = fit.d
    return float(
        0.5 * d * np.log(quad)
        - (0.5 * d - 1.0) * np.log(w)
        - np.log(inner)
        + 0.5 * (ld_psi - ld_hat)
    )


# -- the sufficient shift and the tilted path, assembled per group ------------

@dataclass(frozen=True, eq=False)
class SufficientShift:
    """Expected value of the centered sufficient statistic under the fit.

    Blocks follow the half-vectorized layout: one mean block and one
    ``vech`` block per group.  The observed statistic is zero by centering,
    so the shift locates the ``t = 0`` end of the tilted line.
    """

    mean_blocks: tuple[np.ndarray, ...]
    vech_blocks: tuple[np.ndarray, ...]

    def max_abs(self) -> float:
        return max(
            max((float(np.max(np.abs(b))) for b in self.mean_blocks), default=0.0),
            max((float(np.max(np.abs(b))) for b in self.vech_blocks), default=0.0),
        )


def expected_s_psi(fit) -> SufficientShift:
    """Expected centered sufficient statistic under the constrained fit.

    Group ``g`` contributes the mean block ``-n_g (ybar_g - mu0_g)`` and the
    ``vech`` block ``-n_g/2 vech(A + mu0_g mu0_g' - M_g)``, with ``A`` the
    constrained covariance and ``M_g`` the second moment.  A shift of
    exactly zero means the observed data sit at the null expectation; the
    tilted line then degenerates to a point.
    """
    means = tuple(-s.n * (s.ybar - mu) for s, mu in zip(fit.summaries, fit.mu0))
    vechs = tuple(
        -0.5 * s.n * vech(fit.lambda0_inv + np.outer(mu, mu) - second_moment(s))
        for s, mu in zip(fit.summaries, fit.mu0)
    )
    return SufficientShift(mean_blocks=means, vech_blocks=vechs)


def is_degenerate(fit) -> bool:
    """The shift rule: whether the sufficient shift is zero to rounding,
    relative to the size of the second moments."""
    scale = 1.0 + max(float(np.max(np.abs(second_moment(s)))) for s in fit.summaries)
    return expected_s_psi(fit).max_abs() <= 1e-12 * fit.n_total * scale


@dataclass(frozen=True, eq=False)
class PathPoint:
    """Tilted estimates along the line through the null expectation (t=0)
    and the observed data point (t=1)."""

    t: float
    lambda_t_inv: tuple[np.ndarray, ...]
    mu_t: tuple[np.ndarray, ...]


def path_estimates(fit, t: float) -> PathPoint:
    """Tilted estimates at position ``t`` along the line.

    With ``b_g = ybar_g - mu0_g``, group ``g`` has covariance
    ``(1 - t) A + t (V_g + b_g b_g') - t**2 b_g b_g'`` and mean
    ``mu0_g + t b_g``: ``t = 0`` gives the constrained estimates and
    ``t = 1`` the observed per-group estimates.  Raises
    ``NotPositiveDefiniteError`` if ``t`` lies outside the interval on
    which the tilted covariance stays positive definite.
    """
    t = float(t)
    covs: list[np.ndarray] = []
    mus: list[np.ndarray] = []
    for s, mu in zip(fit.summaries, fit.mu0):
        b = s.ybar - mu
        bb = np.outer(b, b)
        cov = symmetrize((1.0 - t) * fit.lambda0_inv + t * (s.mle_cov + bb) - t * t * bb)
        if not is_positive_definite(cov):
            raise NotPositiveDefiniteError(f"tilted covariance at t={t} is not positive definite")
        covs.append(cov)
        mus.append(mu + t * b)
    return PathPoint(t=t, lambda_t_inv=tuple(covs), mu_t=tuple(mus))


def _stacked_logdet(mats: np.ndarray) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(mats)
    logdet = np.where(sign > 0, logdet, -np.inf)
    return logdet


def dense_log_gbar(fit, ts: np.ndarray, chunk: int = 100_000) -> np.ndarray:
    """Vectorized log integrand over a grid, recomputed from the raw path
    matrices (stacked determinants; no pencil shortcut)."""
    from dirnormal.hypotheses import EqualDistributions, SpecifiedMeanCov

    ts = np.asarray(ts, dtype=float)
    p = fit.p
    d = fit.d
    out = np.full(ts.shape, -np.inf)
    hyp = fit.hypothesis
    for start in range(0, len(ts), chunk):
        t = ts[start:start + chunk]
        tt = t[:, None, None]
        acc = np.zeros(len(t))
        if isinstance(hyp, (SpecifiedMeanCov, EqualDistributions)):
            for s, mu in zip(fit.summaries, fit.mu0):
                b = s.ybar - mu
                mats = (1 - tt) * fit.lambda0_inv + tt * s.mle_cov + tt * (1 - tt) * np.outer(b, b)
                acc += 0.5 * (s.n - p - 2) * _stacked_logdet(mats)
            if isinstance(hyp, SpecifiedMeanCov):
                s = fit.summaries[0]
                m = s.mle_cov + np.outer(s.ybar - fit.mu0[0], s.ybar - fit.mu0[0])
                acc += 0.5 * s.n * (p - np.trace(np.linalg.solve(fit.lambda0_inv, m))) * t
        else:
            for s in fit.summaries:
                mats = (1 - tt) * fit.lambda0_inv + tt * s.mle_cov
                acc += 0.5 * (s.n - p - 2) * _stacked_logdet(mats)
        with np.errstate(divide="ignore"):
            jac = (d - 1) * np.log(t) if d > 1 else np.zeros(len(t))
        out[start:start + chunk] = acc + jac
    return out


def path_feasible(fit, t: float) -> bool:
    """Whether every tilted covariance at ``t`` has a Cholesky factor."""
    try:
        path_estimates(fit, t)
    except NotPositiveDefiniteError:
        return False
    return True


def feasible_sup_scan(fit, top: float, step: float = 1e-6) -> float:
    """Largest ``t`` of a ``step``-spaced grid from 1 to ``top`` with a
    Cholesky-feasible path.

    A scan at spacing 1e-3 over the whole range must find the feasible
    points to be a prefix of the grid; the scan at ``step`` then covers the
    coarse cell after the last feasible point.
    """
    coarse = np.arange(1.0, top, 1e-3)
    ok = np.array([path_feasible(fit, t) for t in coarse])
    last = int(np.nonzero(ok)[0][-1])
    assert ok[:last + 1].all() and not ok[last + 1:].any(), "feasible set is not an interval"
    fine = coarse[last] + step * np.arange(int(round(1e-3 / step)) + 1)
    ok = np.array([path_feasible(fit, t) for t in fine])
    return float(fine[np.nonzero(ok)[0][-1]])


def trapezoid_pvalue(fit, nodes: int = 1_000_001) -> float:
    """Dense-trapezoid directional p-value over the full feasible range.

    The last node sits 1e-9 inside the cap: at ``n = p + 2`` the integrand
    does not vanish at ``t_sup``, and its value there is the limit from
    inside, which a determinant at the boundary itself cannot give.
    """
    ev = DirectionalEvaluator(fit)
    cap = ev.integration_cap() * (1.0 - 1e-9)
    ts_den = np.linspace(0.0, cap, nodes)
    g_den = dense_log_gbar(fit, ts_den)
    g_max = float(np.max(g_den))
    den = trapezoid(np.exp(g_den - g_max), ts_den)
    ts_num = np.linspace(1.0, cap, nodes)
    g_num = dense_log_gbar(fit, ts_num)
    num = trapezoid(np.exp(g_num - g_max), ts_num)
    return float(num / den)


def quad_integral(f, a: float, b: float, points=()) -> float:
    """Integral of the scalar function ``f`` over ``[a, b]`` by adaptive
    QUADPACK quadrature at tight tolerances, split at the ``points`` inside;
    raises when QUADPACK reports that it did not converge."""
    inner = [x for x in points if a < x < b] or None
    out = quad(f, a, b, points=inner, epsabs=1e-15, epsrel=1e-13, limit=500, full_output=1)
    if len(out) > 3:
        raise NoConvergenceError(f"quad on [{a}, {b}]: {out[3]}")
    return float(out[0])


def quad_pvalue(fit) -> float:
    """Directional p-value of the engine's integrand by adaptive quadrature
    over the whole range: ``[0, 1]`` and ``[1, t_cap]``, split at the peak
    found by :func:`brentq_peak`.  It shares only ``log_gbar`` and
    ``integration_cap`` with the engine, not its interval or its rule."""
    ev = DirectionalEvaluator(fit)
    cap = ev.integration_cap()
    t_hat = brentq_peak(fit, cap)
    g_hat = ev.log_gbar(t_hat)

    def f(t):
        return math.exp(ev.log_gbar(t) - g_hat)

    lower = quad_integral(f, 0.0, 1.0, (t_hat,))
    upper = quad_integral(f, 1.0, cap, (t_hat,))
    return upper / (lower + upper)


# -- the representation, peak search and interval the engine replaced --------

_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class RankOneForm:
    """The log-integrand by the matrix determinant lemma.

    Group ``g``'s tilted covariance is ``(1 - t) A + t M_g - t**2 b_g b_g'``.
    With ``mu`` (k, p) the eigenvalues of the ``(A, M_g)`` pencil and
    ``c = Q' L^-1 b_g`` for its eigenvectors ``Q`` and ``A = L L'``,

        ``log det = log det A + sum log f_j + log(1 - t**2 sum c_j**2 / f_j)``

    with ``f_j = 1 - t + t mu_j``.  ``c2`` holds the ``c_j**2``.
    """

    mu: np.ndarray
    c2: np.ndarray
    weights: np.ndarray
    slope: float
    d: int

    def log_gbar(self, t):
        """Log radial integrand less the engine's constant, with
        the rank-one factor computed whatever ``c``; ``-inf`` outside the
        positive definite range.  The ``log f_j`` terms are summed in the
        engine's flat (group, eigenvalue) order, each weighted by its
        group's weight."""
        t_arr = np.asarray(t, dtype=float)
        tv = t_arr.reshape(-1)
        f = 1.0 - tv[:, None, None] + tv[:, None, None] * self.mu
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 1.0 - tv[:, None] ** 2 * np.sum(self.c2 / f, axis=2)
            linear = np.log(f).reshape(tv.size, -1) @ np.repeat(self.weights, self.mu.shape[1])
            vals = linear + np.log(r) @ self.weights + self.slope * tv
            if self.d > 1:
                vals += (self.d - 1) * np.log(tv)
        ok = tv >= 0.0 if self.d == 1 else tv > 0.0
        ok &= np.all(f > 0.0, axis=(1, 2)) & np.all(r > 0.0, axis=1)
        out = np.where(ok, vals, -math.inf)
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    def derivative(self, t: float) -> float:
        """First derivative of :meth:`log_gbar` at ``t``."""
        f = 1.0 - t + t * self.mu
        linear = np.sum((self.mu - 1.0) / f, axis=1)
        r = 1.0 - t * t * np.sum(self.c2 / f, axis=1)
        s1 = t * np.sum(self.c2 * (1.0 + f) / f**2, axis=1)
        return float((self.d - 1) / t + self.slope + self.weights @ (linear - s1 / r))


def rank_one_form(fit) -> RankOneForm:
    """:class:`RankOneForm` of the fit, each group's pencil solved with its
    eigenvectors by ``np.linalg.eigh``.  A linear path (every ``b_g = 0``)
    gets the fit's ``pencil_eigs``, ``c = 0`` and the engine's slope 0."""
    p = fit.p
    weights = np.array([0.5 * (s.n - p - 2) for s in fit.summaries])
    ell_inv, _ = lapack.dtrtri(np.linalg.cholesky(fit.lambda0_inv), lower=1)
    if fit.pencil_eigs is not None:
        mu = np.asarray(fit.pencil_eigs)
        c2 = np.zeros_like(mu)
        slope = 0.0
    else:
        mus, cs = [], []
        for s, mu0 in zip(fit.summaries, fit.mu0):
            b = s.ybar - mu0
            vals, q = np.linalg.eigh(symmetrize(ell_inv @ (s.mle_cov + np.outer(b, b)) @ ell_inv.T))
            mus.append(vals)
            cs.append(q.T @ (ell_inv @ b))
        mu, c2 = np.array(mus), np.array(cs) ** 2
        slope = 0.5 * sum(s.n * (p - float(np.sum(m))) for s, m in zip(fit.summaries, mu))
    return RankOneForm(mu=mu, c2=c2, weights=weights, slope=slope, d=fit.d)


def brentq_peak(fit, t_cap: float) -> float:
    """Maximizer of the fit's log-integrand on ``[1e-9, t_cap (1 - 1e-9)]``
    by the endpoint rules, then ``brentq`` on the derivative of its
    :func:`rank_one_form` to a few ulps."""
    derivative = rank_one_form(fit).derivative
    lo, hi = 1e-9, t_cap * (1.0 - 1e-9)
    if derivative(hi) >= 0.0:
        return hi
    if derivative(lo) <= 0.0:
        return lo
    return brentq(derivative, lo, hi, xtol=_EPS * lo, rtol=4 * _EPS)


# Roots of the rank-one margin past this read as an unbounded range.
TSUP_HORIZON = 1e8


def _rank_one_margin(t: float, mu: np.ndarray, c2: np.ndarray) -> float:
    """Smallest rank-one factor ``1 - t**2 sum c_j**2 / f_j`` over the groups
    at ``t``; ``-1`` once a linear factor ``f_j = 1 - t + t mu_j`` is not
    positive."""
    f = 1.0 - t + t * mu
    if np.any(f <= 0.0):
        return -1.0
    return float(np.min(1.0 - t * t * np.sum(c2 / f, axis=1)))


def brentq_feasible_sup(mu: np.ndarray, c2: np.ndarray) -> float:
    """End of the positive definite range of a :class:`RankOneForm` by
    ``brentq`` on the smallest rank-one factor: ``t_lin`` when the factor
    outlasts the linear ones, infinite when it is still positive at the
    first power of two past ``TSUP_HORIZON``."""
    nu_min = float(mu.min())
    t_lin = 1.0 / (1.0 - nu_min) if nu_min < 1.0 - 1e-12 else math.inf
    if not np.any(c2 > 0.0):
        return t_lin
    hi = t_lin
    if not math.isfinite(hi):
        hi = 2.0
        while _rank_one_margin(hi, mu, c2) > 0.0:
            hi *= 2.0
            if hi > TSUP_HORIZON:
                return math.inf
    elif _rank_one_margin(hi, mu, c2) > 0.0:
        return hi
    return brentq(_rank_one_margin, 0.0, hi, args=(mu, c2), xtol=1e-14, rtol=4 * _EPS)


def _widen(ev, t_hat: float, g_hat: float, start: float, lower: bool, bound: float) -> float:
    half = start
    for _ in range(64):
        point = max(bound, t_hat - half) if lower else min(bound, t_hat + half)
        if point == bound or g_hat - ev.log_gbar(point) >= ENDPOINT_DROP:
            return point
        half *= 2.0
    return bound


def doubling_interval(ev, t_hat: float, curvature_at_t_hat: float, halfwidth: float,
                      t_cap: float) -> tuple[float, float]:
    """Integration interval by doubling one candidate endpoint at a time,
    each evaluated on its own."""
    if not (curvature_at_t_hat < 0.0) or not math.isfinite(curvature_at_t_hat):
        return 0.0, t_cap
    g_hat = ev.log_gbar(t_hat)
    sigma = (-curvature_at_t_hat) ** -0.5
    t_min = _widen(ev, t_hat, g_hat, halfwidth * sigma, lower=True, bound=0.0)
    t_max = _widen(ev, t_hat, g_hat, halfwidth * sigma, lower=False, bound=t_cap)
    return min(t_min, 1.0), max(t_max, min(1.0, t_cap))


def maximize_loglik_moment(summary, constrain_diag: bool = False) -> float:
    """Maximize the explicit log-likelihood by a generic optimizer.

    Parameterizes the concentration by its lower Cholesky factor with log
    diagonal; ``constrain_diag`` restricts the concentration to diagonal.
    Returns the maximum of :func:`canonical_loglik`.
    """
    p = summary.p
    tril = np.tril_indices(p, -1)

    def unpack(theta):
        xi = theta[:p]
        ell = np.zeros((p, p))
        ell[np.diag_indices(p)] = np.exp(theta[p:2 * p])
        if not constrain_diag:
            ell[tril] = theta[2 * p:]
        lam = ell @ ell.T
        return xi, lam

    def negloglik(theta):
        xi, lam = unpack(theta)
        return -canonical_loglik(xi, lam, summary)

    n_free = 2 * p if constrain_diag else 2 * p + p * (p - 1) // 2
    x0 = np.zeros(n_free)
    res = minimize(negloglik, x0, method="BFGS", options={"gtol": 1e-12, "maxiter": 5000})
    res2 = minimize(negloglik, res.x, method="Nelder-Mead",
                    options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 20000})
    return -min(res.fun, res2.fun)


def ips_zero_pattern(mle_cov: np.ndarray, zero_pairs, tol: float = 1e-9, max_sweeps: int = 10_000) -> np.ndarray:
    """Zero-pattern covariance fit by edgewise iterative proportional scaling.

    The concentration candidate ``K`` starts diagonal, and each free margin
    ``c`` (every singleton and every unconstrained pair) is updated by
    ``K[c, c] += inv(S[c, c]) - inv(Sigma[c, c])`` where ``Sigma = inv(K)``.
    ``Sigma`` is maintained by a rank-two update, so the margin matches the
    sample value exactly after each step.  The fixed point matches
    ``mle_cov`` on all free entries while keeping the constrained
    concentration entries exactly zero.

    Convergence is declared when the largest absolute change of ``Sigma``
    within a sweep drops below ``tol``.
    """
    s = symmetrize(np.asarray(mle_cov, dtype=float))
    p = s.shape[0]
    if not is_positive_definite(s):
        raise NotPositiveDefiniteError("sample covariance is not positive definite")
    zero = ZeroPattern(tuple((i, j) for i, j in zero_pairs)).mask(p) if zero_pairs else np.zeros((p, p), bool)
    if not zero.any():
        return s.copy()

    free_pairs = [(i, j) for i in range(p) for j in range(i + 1, p) if not zero[i, j]]
    cov = np.diag(np.diag(s)).astype(float)
    conc = np.diag(1.0 / np.diag(s))

    margins: list[list[int]] = [[i] for i in range(p)] + [[i, j] for i, j in free_pairs]
    for _ in range(max_sweeps):
        delta_sweep = 0.0
        for c in margins:
            scc = s[np.ix_(c, c)]
            ccc = cov[np.ix_(c, c)]
            c_inv = np.linalg.inv(ccc)
            step = np.linalg.inv(scc) - c_inv
            if np.max(np.abs(step)) == 0.0:
                continue
            conc[np.ix_(c, c)] += step
            # Sigma' = Sigma - U (C^-1 - C^-1 S_cc C^-1) U^T drives the
            # c-margin of Sigma exactly to S_cc.
            u = cov[:, c]
            g = c_inv - c_inv @ scc @ c_inv
            update = u @ g @ u.T
            cov = cov - update
            delta_sweep = max(delta_sweep, float(np.max(np.abs(update))))
        if delta_sweep < tol:
            break
    else:
        raise NoConvergenceError(f"zero-pattern fit did not converge in {max_sweeps} sweeps")

    conc = symmetrize(conc)
    conc[zero] = 0.0
    out = symmetrize(np.linalg.inv(conc))
    if not is_positive_definite(out):  # pragma: no cover - the sweeps keep conc positive definite
        raise NotPositiveDefiniteError("zero-pattern fit is not positive definite")
    return out


def zero_pattern_kkt_residuals(v: np.ndarray, zero_pairs, fitted: np.ndarray) -> tuple[float, float]:
    """Optimality residuals of a zero-pattern fit, each relative to the
    largest entry: the largest gap between the fitted covariance and ``v``
    on the diagonal and the free pairs, and the largest fitted
    concentration on the pattern (0 for an empty pattern)."""
    p = v.shape[0]
    zero = np.zeros((p, p), dtype=bool)
    for i, j in zero_pairs:
        zero[i, j] = zero[j, i] = True
    conc = np.linalg.inv(fitted)
    gap = float(np.max(np.abs(fitted - v)[~zero])) / float(np.max(np.abs(v)))
    on_pattern = float(np.max(np.abs(conc[zero]), initial=0.0)) / float(np.max(np.abs(conc)))
    return gap, on_pattern


def csv_reader_read_data(path) -> tuple[np.ndarray, list[str] | None]:
    """``read_data_csv`` as a ``csv.reader`` loop over the rows, with one
    ``float`` per cell.  Its error messages count only the rows that are not
    blank, so compare locations with the physical lines elsewhere."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise ParseError(f"{path}: file is empty")

    names: list[str] | None = None
    start = 0
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        names = [c.strip() for c in rows[0]]
        start = 1
    if start == len(rows):
        raise ParseError(f"{path}: no data rows below the header")

    width = len(rows[start])
    data = []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ParseError(f"{path}: line {lineno}: expected {width} columns, got {len(row)}")
        try:
            data.append([float(c) for c in row])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: not a number") from exc
    if names is not None and len(names) != width:
        raise ParseError(f"{path}: header has {len(names)} names but rows have {width} columns")
    return np.asarray(data, dtype=float), names
