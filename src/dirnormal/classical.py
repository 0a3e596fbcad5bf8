"""Classical and higher-order reference tests.

Each hypothesis gives its likelihood ratio statistic ``W``
(``Hypothesis.lrt``), from the constrained and unconstrained estimates of
the fit alone.  This module provides the Bartlett rescaling
``W_BC = d W / E(W)``, with ``E(W)`` estimated by the parametric bootstrap
of :mod:`dirnormal.simulation`, and the two large-deviation modifications

    ``W*  = W (1 - log(gamma) / W)**2``    and    ``W** = W - 2 log(gamma)``

driven by a correction factor ``gamma``, one formula over the same
estimates for every null (Skovgaard 2001).  All three are referred to an
upper chi-square tail with ``d`` degrees of freedom.

``gamma`` is astronomically large once the dimension grows, so the
correction is computed and stored on the log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .exceptions import DegenerateNullError
from .hypotheses import ConstrainedFit

__all__ = [
    "CLASSICAL_METHODS",
    "ClassicalReport",
    "chisq_upper_tail",
    "skovgaard_log_gamma",
    "skovgaard_stats",
    "bartlett_rescale",
    "classical_report",
]


# The classical methods, keyed as in the reports and the simulation studies.
CLASSICAL_METHODS = ("lrt", "bc", "sko1", "sko2")


@dataclass(frozen=True)
class ClassicalReport:
    """Statistics and p-values of the classical tests for one data set.

    ``statistics`` and ``pvalues`` are keyed by the requested methods.  A
    statistic is ``None`` where it is not computed: for every method but
    ``lrt`` when the fit is degenerate or ``W`` is not positive.  Read
    ``d`` and the degeneracy flag from the fit (``fit.d``, ``fit.degenerate``).
    """

    w: float  # headline likelihood ratio statistic
    statistics: dict[str, float | None]
    pvalues: dict[str, float]
    log_gamma: float | None = None
    e_w_hat: float | None = None  # bootstrap estimate of E(W)


def chisq_upper_tail(x: float, d: int) -> float:
    """``P(chi2_d > x)`` via the regularized upper incomplete gamma."""
    if d < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    return float(gammaincc(0.5 * d, 0.5 * x))


def skovgaard_log_gamma(fit: ConstrainedFit) -> float:
    """Log of the correction factor for the modified likelihood statistics.

    Raises
    ------
    DegenerateNullError
        On a degenerate fit (``fit.degenerate``), where the factor is
        undefined and callers should report p-values of 1.
    """
    if fit.degenerate:
        raise DegenerateNullError("likelihood ratio statistic is zero; correction factor undefined")
    w = fit.plain_w
    p = fit.p
    quad = inner = logdet_ratio = 0.0
    # The quadratic form and the inner product split per group through the
    # block structure of the information.  With b = ybar_g - mu0_g, V the
    # group's covariance and G = V + b b' - A, group g adds n b'A^-1 b +
    # n/2 tr((G A^-1)^2) to the first and n/2 (b'V^-1 b + b'A^-1 b +
    # tr(V^-1 A) + tr(A^-1 V) - 2p) to the second (checked against the
    # assembled-matrix oracle in the test suite).
    a, a_inv, ld_a = fit.a_factor.matrix, fit.a_factor.inv, fit.a_factor.log_det
    for s, mu in zip(fit.summaries, fit.mu0):
        b = s.ybar - mu
        ga = (s.mle_cov + np.outer(b, b) - a) @ a_inv
        b_a = float(b @ a_inv @ b)
        quad += s.n * b_a + 0.5 * s.n * float(np.sum(ga * ga.T))
        v_inv = s.cov_factor.inv
        traces = float(np.sum(v_inv * a)) + float(np.sum(a_inv * s.mle_cov))
        inner += 0.5 * s.n * (float(b @ v_inv @ b) + b_a + traces - 2 * p)
        logdet_ratio += 0.5 * (p + 2) * (ld_a - s.cov_factor.log_det)
    if quad <= 0.0 or inner <= 0.0:
        raise DegenerateNullError("degenerate correction factor")
    d = fit.d
    return 0.5 * d * math.log(quad) - (0.5 * d - 1.0) * math.log(w) - math.log(inner) + logdet_ratio


def skovgaard_stats(w: float, log_gamma: float) -> tuple[float, float]:
    """The modified statistics ``(w_star, w_star2)``.

    ``w_star`` is nonnegative by construction; ``w_star2`` may be negative,
    in which case its p-value is 1.
    """
    if w <= 0.0:
        raise ValueError("w must be positive")
    return w * (1.0 - log_gamma / w) ** 2, w - 2.0 * log_gamma


def bartlett_rescale(w: float, d: int, e_w_hat: float) -> tuple[float, float]:
    """Rescale ``w`` by ``d / e_w_hat`` and return ``(w_bc, p_bc)``."""
    if e_w_hat <= 0.0:
        raise DegenerateNullError("estimated E(W) is not positive")
    w_bc = d * w / e_w_hat
    return w_bc, chisq_upper_tail(w_bc, d)


def classical_report(
    fit: ConstrainedFit,
    methods: tuple[str, ...] = ("lrt", "sko1", "sko2"),
    *,
    e_w_hat: float | None = None,
) -> ClassicalReport:
    """Evaluate the requested classical tests on one fitted data set.

    ``methods`` is a subset of :data:`CLASSICAL_METHODS`; another name
    raises ``ValueError``.  Each p-value is the upper chi-square tail of
    its statistic, and 1 for a statistic below 0.  On a degenerate fit
    (``fit.degenerate``) every requested p-value is reported as 1, and so is
    every p-value when ``W`` is not positive, which the ``n - 1`` weighting
    of ``c5`` can give: it sits at the foot of its chi-square reference.
    ``bc`` rescales by ``e_w_hat``, the estimate of ``E(W)`` that
    ``bartlett_bootstrap`` computes for one data set and
    ``calibrate_bartlett_expectation`` once per simulation cell; it is
    required when ``bc`` is requested on a fit that is not degenerate.
    """
    unknown = [m for m in methods if m not in CLASSICAL_METHODS]
    if unknown:
        raise ValueError(f"unknown classical methods: {', '.join(unknown)}")
    w = fit.hypothesis.lrt(fit)
    if fit.degenerate or w <= 0.0:
        return ClassicalReport(w=w, statistics={m: w if m == "lrt" else None for m in methods},
                               pvalues=dict.fromkeys(methods, 1.0))
    if "bc" in methods and e_w_hat is None:
        raise ValueError("the bc method needs e_w_hat")

    stats = {"lrt": w}
    log_gamma = None
    if "sko1" in methods or "sko2" in methods:
        log_gamma = skovgaard_log_gamma(fit)
        stats["sko1"], stats["sko2"] = skovgaard_stats(w, log_gamma)
    if "bc" in methods:
        stats["bc"], _ = bartlett_rescale(w, fit.d, e_w_hat)
    statistics = {m: stats[m] for m in methods}
    return ClassicalReport(
        w=w,
        statistics=statistics,
        pvalues={m: chisq_upper_tail(max(s, 0.0), fit.d) for m, s in statistics.items()},
        log_gamma=log_gamma,
        e_w_hat=e_w_hat,
    )
