"""Exactness of the directional test at the boundary of the maximum
likelihood estimate, read from the fit's spectrum.

With ``n = p + 2`` in every group each weight ``(n_g - p - 2) / 2`` is 0,
and for every null that estimates the scale the spectrum's slope is 0 (c3's
up to rounding), so the integrand is ``t**(d - 1)`` on ``[0, t_sup]`` with
``t_sup = 1 / (1 - min mu)`` and the directional p-value is
``1 - (1 - min mu)**d``; ``TestMleBoundary.test_closed_form_at_smallest_n``
in test_directional.py ties the engine to that form.  Exact uniformity
under the null is then the statement ``(1 - min mu)**d ~ U(0, 1)`` about
the smallest pencil eigenvalue alone, checked here with ``mu`` from the
fit's own ``spectrum`` and no quadrature.  c3 and c4 have groups of equal
size; c5's slope is not 0, so it has no such form.

The seed, the replication count and the decision rule are fixed in
advance, never chosen after a result: in every cell the rate of
``p <= 0.05`` lies within three standard errors of 0.05, and the
Kolmogorov-Smirnov p-value of the replications exceeds
``0.01 / len(CELLS)`` (Bonferroni over the cells).
"""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from dirnormal.hypotheses import HYPOTHESES, ZeroPattern, fit_hypothesis
from dirnormal.simulation import ScenarioSpec, generate_scenario, hypothesis_for

SEED = 231020
REPS = 800
ALPHA = 0.05
CELLS = [(case, p) for case in ("c1", "c2", "c3", "c4", "c6", "pattern") for p in (5, 30)]


def _boundary_fits(case: str, p: int):
    """Null fits with ``n = p + 2`` rows in every group: the simulation's
    scenario for c1-c6 (three groups for c3 and c4), standard normal data
    under two zero pairs for ``pattern``."""
    n = p + 2
    if case == "pattern":
        hyp = ZeroPattern(((0, 2), (1, 3)))
        for rep in range(REPS):
            yield fit_hypothesis(hyp, np.random.default_rng((SEED, p, rep)).standard_normal((n, p)))
        return
    spec = ScenarioSpec(case=case, n=(n,) * 3 if HYPOTHESES[case].grouped else n, p=p, reps=REPS, seed=SEED)
    hyp = hypothesis_for(spec)
    for rep in range(REPS):
        yield fit_hypothesis(hyp, generate_scenario(spec, rep))


def _closed_form_pvalues(case: str, p: int) -> np.ndarray:
    pvals = []
    for fit in _boundary_fits(case, p):
        mu, slope = fit.spectrum
        assert abs(slope) <= 100 * fit.n_total * fit.p * np.finfo(float).eps
        # 1 - (1 - min mu)**d; min mu >= 1 would leave t_sup unbounded
        pvals.append(-math.expm1(fit.d * math.log1p(-min(float(mu.min()), 1.0))))
    return np.array(pvals)


@pytest.mark.parametrize("case, p", CELLS)
def test_smallest_eigenvalue_gives_uniform_pvalues(case, p):
    pvals = _closed_form_pvalues(case, p)
    assert np.all((pvals >= 0.0) & (pvals <= 1.0))
    rate = float(np.mean(pvals <= ALPHA))
    band = 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / REPS)
    ks_p = kstest(pvals, "uniform").pvalue
    print(f"{case} p={p} n={p + 2}: rate at {ALPHA} {rate:.4f}, KS p {ks_p:.3f}")
    assert abs(rate - ALPHA) <= band, (case, p, rate)
    assert ks_p > 0.01 / len(CELLS), (case, p, ks_p)
