"""Directional p-value engine.

The departure from the null is measured along the line through the null
expectation of the sufficient statistic (``t = 0``) and the observed point
(``t = 1``).  The p-value is the ratio of two one-dimensional integrals of
``exp(gbar(t))`` where ``gbar`` is the log of the radial integrand:

    ``p = integral(1 .. t_sup) / integral(0 .. t_sup)``,

with ``t_sup`` the largest ``t`` for which the tilted covariance estimates
remain positive definite.  For every null each group's tilted covariance
has the determinant of a pencil linear in ``t``, so ``gbar``, its
derivatives and ``t_sup`` follow from the fit's ``spectrum`` alone: those
eigenvalues and one linear term.  ``gbar`` is evaluated up to an
additive constant, which cancels in the ratio, and the integrand is
rescaled by its maximum so the quadrature never overflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NoConvergenceError
from .hypotheses import ConstrainedFit

__all__ = [
    "DirectionalDiagnostics",
    "DirectionalEvaluator",
    "integration_interval",
    "directional_pvalue",
]

# Required drop of gbar below its maximum at the integration endpoints.
ENDPOINT_DROP = 40.0
# Drop used to truncate an infinite upper limit.
TRUNCATION_DROP = 60.0
# Half-width of the base integration interval in Laplace standard deviations.
INTERVAL_HALFWIDTH = 5.0
# Tolerances of the quadrature (see directional_pvalue).
QUAD_REL_TOL = 1e-9
QUAD_ABS_TOL = 1e-14
_EPS = float(np.finfo(float).eps)
# Gauss-Legendre nodes per panel, panels per side of t = 1 in the coarser of
# the two compared resolutions (the finer one doubles them), and the most
# panels a side is refined to before the quadrature gives up.
_GL_NODES = 24
_GL_PANELS = 2
_GL_MAX_PANELS = 256
# Half-widths, in units of the first, of the candidate endpoints of the
# integration interval: up to 64 doublings.
_DOUBLINGS = 2.0 ** np.arange(64)
_DOUBLINGS.flags.writeable = False
# Peak search: largest number of fused evaluations before giving up.
_PEAK_MAX_EVALS = 100


class DirectionalEvaluator:
    """Single-instance evaluator of the log-integrand and its derivatives.

    Every case shares one representation, the fit's spectrum
    (:attr:`~dirnormal.hypotheses.ConstrainedFit.spectrum`): with ``mu``
    each group's pencil eigenvalues

        ``log det = log det A + sum log f_j``,  ``f_j = 1 - t + t mu_j``,

    and the log-integrand adds ``slope * t``: O(k p) per ``t``, on whole
    arrays of ``t``, up to ``t_sup = 1 / (1 - min mu)``.  The constant
    ``log det A`` terms are left out.  Instances are immutable after
    construction and safe to share across workers.
    """

    def __init__(self, fit: ConstrainedFit):
        self.d = fit.d
        self._mu, self._slope = fit.spectrum  # (k, p) or (k, p + 1)
        self._weights = np.array([0.5 * (s.n - fit.p - 2) for s in fit.summaries])
        self._mu_minus_one = self._mu - 1.0
        mu_min = float(self._mu.min())
        self.t_sup = 1.0 / (1.0 - mu_min) if mu_min < 1.0 - 1e-12 else math.inf

    # -- log-integrand and its derivatives -----------------------------------

    def log_gbar(self, t):
        """Log radial integrand less the constant ``sum_g w_g log det A``, with
        ``w_g = (n_g - p - 2) / 2``.

        Accepts a scalar or an array of ``t`` values; returns ``-inf``
        outside the positive definite range.
        """
        t_arr = np.asarray(t, dtype=float)
        tv = t_arr.reshape(-1)
        f = 1.0 - tv[:, None, None] + tv[:, None, None] * self._mu  # (m, k, p) or (m, k, p + 1)
        ok = tv >= 0.0 if self.d == 1 else tv > 0.0
        ok &= np.all(f > 0.0, axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.sum(np.log(f), axis=2) @ self._weights + self._slope * tv
            if self.d > 1:
                vals += (self.d - 1) * np.log(tv)
        out = np.where(ok, vals, -math.inf)
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    def slope_and_curvature(self, t: float) -> tuple[float, float]:
        """Closed-form first and second derivatives of ``log_gbar`` at ``t``.

        With ``x_j = (mu_j - 1) / f_j`` each group's factors add ``sum x_j``
        and ``-sum x_j**2``.
        """
        t = float(t)
        f = 1.0 - t + t * self._mu
        x = self._mu_minus_one / f
        slope = np.sum(x, axis=1)
        curv = np.sum(x * x, axis=1)
        return (float((self.d - 1) / t + self._slope + self._weights @ slope),
                float(-(self.d - 1) / (t * t) - self._weights @ curv))

    def curvature(self, t: float) -> float:
        """Closed-form second derivative of ``log_gbar`` at ``t`` (see
        :meth:`slope_and_curvature`)."""
        return self.slope_and_curvature(t)[1]

    # -- maximization and integration support ---------------------------------

    def integration_cap(self) -> float:
        """Finite upper integration limit.

        Equals ``t_sup`` when finite; otherwise the integrand decays and
        the limit is replaced by a doubling search for the point where the
        log-integrand has dropped ``TRUNCATION_DROP`` units below the
        running maximum.
        """
        if math.isfinite(self.t_sup):
            return self.t_sup
        g_running = self.log_gbar(1.0)
        t = 2.0
        while t < 1e12:
            g_t = self.log_gbar(t)
            g_running = max(g_running, g_t)
            if g_t < g_running - TRUNCATION_DROP:
                return t
            t *= 2.0
        raise NoConvergenceError("could not truncate an unbounded integration range")

    def maximize(self, t_cap: float) -> tuple[float, int]:
        """Maximizer of ``log_gbar`` on ``[1e-9, t_cap (1 - 1e-9)]`` and the
        number of :meth:`slope_and_curvature` calls that found it.

        The maximizer is the root of the derivative, or the bound where
        that has one sign (the upper one at ``n = p + 2``, say).  The
        derivative decreases because each tilted covariance is
        matrix-concave in ``t``, ``log det`` is concave and increasing, the
        weights ``(n - p - 2) / 2`` are nonnegative and ``(d - 1) log t`` is
        concave.

        The search starts at ``t = 1``, where the peak lies under the null,
        and takes Newton steps on ``h = t (t_sup - t) g'``: the same roots,
        without the poles of ``g'`` at 0 and at ``t_sup``, near which Newton
        steps on ``g'`` itself only double.  The step
        ``-g' / (g'' + g' / t - g' / (t_sup - t))`` equals the Newton step
        on ``g'`` at the root.  Every evaluation narrows a bracket of the
        root; a step that would leave it, or that is longer than the move
        before, bisects the bracket instead.  The search stops once a step
        is at most 4 ulps of ``t``, or once a step under ``1e-13 t`` is not
        half the move before: that is rounding noise in ``g'``, which a flat
        peak can lift above 4 ulps.  Without ``t_sup`` (an unbounded range)
        the factor ``t_sup - t`` is left out.
        """
        lo, hi = 1e-9, t_cap * (1.0 - 1e-9)
        t = min(max(1.0, lo), hi)
        slope, curv = self.slope_and_curvature(t)
        evals = 1
        # The bound rules: the maximizer is the bound the derivative points
        # to when the derivative keeps its sign up to it.
        up = slope >= 0.0
        bound = hi if up else lo
        if t != bound:
            bound_slope = self.slope_and_curvature(bound)[0]
            evals += 1
        if t == bound or (bound_slope >= 0.0 if up else bound_slope <= 0.0):
            return bound, evals
        if slope == 0.0:
            return t, evals
        if up:
            lo = t
        else:
            hi = t
        last = math.inf  # length of the previous move
        while evals < _PEAK_MAX_EVALS:
            scale = curv + slope / t
            if math.isfinite(self.t_sup):
                scale -= slope / (self.t_sup - t)
            step = -slope / scale if scale < 0.0 else math.nan
            if abs(step) <= 4.0 * _EPS * t or (abs(step) > 0.5 * last and abs(step) <= 1e-13 * t):
                return min(max(t + step, lo), hi), evals
            if lo < t + step < hi and abs(step) <= last:
                t, last = t + step, abs(step)
            else:
                t, last = 0.5 * (lo + hi), 0.5 * (hi - lo)
            slope, curv = self.slope_and_curvature(t)
            evals += 1
            if slope > 0.0:
                lo = t
            elif slope < 0.0:
                hi = t
            else:
                return t, evals
            if hi - lo <= 4.0 * _EPS * t:
                return t, evals
        raise NoConvergenceError(f"peak search did not converge in {evals} evaluations")


@dataclass(frozen=True)
class DirectionalDiagnostics:
    """Internals of one directional evaluation."""

    t_sup: float  # supremum of the positive definite range (may be inf)
    t_cap: float  # finite upper limit actually integrated to
    t_hat: float  # maximizer of the log-integrand
    curvature_at_t_hat: float
    t_min: float
    t_max: float
    numerator: float
    denominator: float
    p_value: float
    n_evals: int = 0  # integrand points of the quadrature, refinements included
    quad_escalations: int = 0  # sides of t = 1 refined past the base pair (0-2)
    peak_evals: int = 0  # slope_and_curvature calls of the peak search
    # Error estimate of the denominator: each side's gap between its last two
    # resolutions plus the concavity bound on each tail outside [t_min, t_max].
    quad_error: float = 0.0


def _first_drop(points: np.ndarray, drops: np.ndarray, bound: float) -> float:
    """First candidate endpoint whose drop below the peak is large enough;
    ``bound`` when there is none."""
    return float(points[np.argmax(drops)]) if drops.any() else bound


def integration_interval(
    ev: DirectionalEvaluator,
    t_hat: float,
    g_hat: float,
    curvature_at_t_hat: float,
    halfwidth: float,
    t_cap: float,
) -> tuple[float, float]:
    """Narrowed integration interval around the integrand peak ``(t_hat,
    g_hat)``.

    The base interval is ``t_hat +- halfwidth * sigma`` with
    ``sigma = (-curvature)**-0.5`` (Laplace scaling), widened by doubling
    until the log-integrand at each free endpoint sits at least
    ``ENDPOINT_DROP`` units below the peak, then adjusted so the point
    ``t = 1`` (the observed data, lower limit of the numerator) is never
    excluded.  Every doubled candidate short of the range bounds ``0`` and
    ``t_cap`` is evaluated in one ``log_gbar`` call, and each side keeps
    its first candidate that drops enough, else the bound.  Falls back to
    the full range when the curvature is not usable.
    """
    if not (curvature_at_t_hat < 0.0) or not math.isfinite(curvature_at_t_hat):
        return 0.0, t_cap
    halves = halfwidth * (-curvature_at_t_hat) ** -0.5 * _DOUBLINGS
    lower = t_hat - halves
    upper = t_hat + halves
    lower = lower[:np.argmax(lower <= 0.0)] if lower[-1] <= 0.0 else lower
    upper = upper[:np.argmax(upper >= t_cap)] if upper[-1] >= t_cap else upper
    drops = g_hat - ev.log_gbar(np.concatenate([lower, upper])) >= ENDPOINT_DROP
    t_min = min(_first_drop(lower, drops[:lower.size], 0.0), 1.0)
    t_max = max(_first_drop(upper, drops[lower.size:], t_cap), min(1.0, t_cap))
    return t_min, t_max


@functools.lru_cache(maxsize=None)
def _gauss_legendre(*panel_counts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on ``[0, 1]`` of ``m`` equal ``_GL_NODES``-point
    panels for each ``m`` of ``panel_counts`` in turn, read-only."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    nodes = np.concatenate([(np.arange(m)[:, None] + 0.5 * (x + 1.0)).ravel() / m for m in panel_counts])
    weights = np.concatenate([np.tile(0.5 * w / m, m) for m in panel_counts])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _rule(ends: np.ndarray, panels: tuple[int, ...], t_sup: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in ``t`` and weights of :func:`_gauss_legendre` on each row
    ``(a, b)`` of ``ends``, laid out in ``s = sqrt(t_sup - t)`` when
    ``t_sup`` is given.  There ``dt = 2 s ds``, and each factor of the
    integrand that vanishes at ``t_sup`` is an integer or half-integer
    power of ``t_sup - t``, so it is smooth in ``s``."""
    x, w = _gauss_legendre(*panels)
    a, b = ends[:, :1], ends[:, 1:]
    if t_sup is None:
        return a + (b - a) * x, (b - a) * w
    s_lo, s_hi = np.sqrt(t_sup - b), np.sqrt(t_sup - a)
    s = s_lo + (s_hi - s_lo) * x
    return t_sup - s * s, 2.0 * (s_hi - s_lo) * s * w


def directional_pvalue(fit: ConstrainedFit) -> tuple[float, DirectionalDiagnostics]:
    """Directional p-value of the fitted hypothesis.

    Integrates ``exp(log_gbar(t) - log_gbar(t_hat))`` over the narrowed
    interval; the numerator runs from the observed point ``t = 1`` and the
    denominator from ``t_min``, sharing the upper piece so the ratio lies
    in [0, 1] by construction.  Each side of ``t = 1`` is integrated by
    composite Gauss-Legendre at two resolutions, all nodes evaluated in one
    vectorized ``log_gbar`` call, with the nodes in ``sqrt(t_sup - t)``
    when the interval ends at ``t_sup`` (see :func:`_rule`).  The finer
    value is kept when the two agree to ``QUAD_REL_TOL`` (or
    ``QUAD_ABS_TOL``); otherwise that side doubles its panels until the
    last two agree, and gives up past ``_GL_MAX_PANELS``.
    ``diagnostics.quad_escalations`` counts the refined sides;
    ``diagnostics.quad_error`` adds each side's last gap to the concavity
    bound ``exp(g(t_max) - g_hat) / |g'(t_max)|`` on the tail above
    ``t_max`` and its mirror below ``t_min``, 0 at a range bound.

    Returns ``(p_value, diagnostics)``.  A degenerate fit (observed data
    exactly at the null expectation, ``fit.degenerate``) reports ``p = 1``
    and NaN for the other diagnostics but ``t_sup``.
    """
    if fit.degenerate:
        nan = math.nan
        return 1.0, DirectionalDiagnostics(
            t_sup=math.inf, t_cap=nan, t_hat=nan, curvature_at_t_hat=nan,
            t_min=nan, t_max=nan, numerator=nan, denominator=nan, p_value=1.0)

    ev = DirectionalEvaluator(fit)
    t_cap = ev.integration_cap()
    t_hat, peak_evals = ev.maximize(t_cap)
    g_hat = ev.log_gbar(t_hat)
    curv = ev.curvature(t_hat)
    t_min, t_max = integration_interval(ev, t_hat, g_hat, curv, INTERVAL_HALFWIDTH, t_cap)

    sides = np.array([[t_min, 1.0], [1.0, t_max]])
    end_sup = ev.t_sup if t_max == ev.t_sup else None  # the interval ends at t_sup
    ts, ws = _rule(sides, (_GL_PANELS, 2 * _GL_PANELS), end_sup)
    n_evals = ts.size
    # the endpoints ride along for the tail bounds
    logs = ev.log_gbar(np.append(ts, (t_min, t_max)))
    quad_error = 0.0
    for end, bound, g_end in zip((t_min, t_max), (0.0, t_cap), logs[n_evals:]):
        if end != bound:
            slope = ev.slope_and_curvature(end)[0]
            quad_error += math.exp(g_end - g_hat) / abs(slope) if slope else math.inf
    terms = np.exp(logs[:n_evals].reshape(ts.shape) - g_hat) * ws
    sums = np.add.reduceat(terms, (0, _GL_NODES * _GL_PANELS), axis=1)  # coarse, fine per side
    escalations = 0
    integrals = []
    for side, (coarse, fine) in zip(sides, sums.tolist()):
        panels = 2 * _GL_PANELS
        while abs(fine - coarse) > max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(fine)):
            if panels == _GL_MAX_PANELS:
                raise NoConvergenceError(f"quadrature on {side} did not converge in {panels} panels")
            panels *= 2
            t, w = _rule(side[None], (panels,), end_sup)
            coarse, fine = fine, float(np.sum(np.exp(ev.log_gbar(t) - g_hat) * w))
            n_evals += t.size
        escalations += panels > 2 * _GL_PANELS
        quad_error += abs(fine - coarse)
        integrals.append(fine)
    lower, upper = integrals
    denominator = lower + upper
    if not (denominator > 0.0) or not math.isfinite(denominator):
        raise NoConvergenceError("directional integrals are degenerate")
    p = min(max(upper / denominator, 0.0), 1.0)
    diag = DirectionalDiagnostics(
        t_sup=ev.t_sup, t_cap=t_cap, t_hat=t_hat, curvature_at_t_hat=curv,
        t_min=t_min, t_max=t_max, numerator=upper, denominator=denominator,
        p_value=p, n_evals=n_evals, quad_escalations=escalations,
        peak_evals=peak_evals, quad_error=quad_error,
    )
    return p, diag
