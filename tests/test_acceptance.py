"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line.  Monte Carlo criteria use 2000 replications
with three-standard-error bands, SE = sqrt(r (1 - r) / 2000).

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (the full suite takes on the order of ten minutes
on a small multicore machine).
"""

import math

import numpy as np
import pytest

from dirnormal.directional import DirectionalEvaluator, directional_pvalue
from dirnormal.hypotheses import (
    BlockIndependence,
    CompleteIndependence,
    EqualCovariances,
    EqualDistributions,
    ProportionalIdentity,
    SpecifiedMeanCov,
    ZeroPattern,
    fit_hypothesis,
)
from dirnormal.linalg import symmetrize
from dirnormal.simulation import Extreme, Null, ScenarioSpec, run_study

from _oracles import info_log_det, info_matrix, is_positive_definite, path_estimates, trapezoid_pvalue

MASTER_SEED = 20260811
REPS = 2000
ALPHA = 0.05
DT_BAND = 0.0147  # 3 * sqrt(0.05 * 0.95 / 2000)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def _cell(case: str, p: int, methods, alternative=Null(), **kw) -> ScenarioSpec:
    n = (100, 100, 100) if case in ("c3", "c4") else 100
    kw.setdefault("reps", REPS)
    kw.setdefault("seed", MASTER_SEED)
    return ScenarioSpec(case=case, n=n, p=p, alternative=alternative,
                        methods=tuple(methods), alpha=ALPHA, **kw)


def test_criterion_01_directional_exactness():
    """Type I error 0.050 +- 0.0147 and KS uniformity p > 0.01 in every cell."""
    failures = []
    lines = []
    for case in ("c1", "c2", "c3", "c4", "c5", "c6"):
        for p in (5, 30, 90):  # kappa = p/n in {0.05, 0.3, 0.9}
            res = run_study(_cell(case, p, ("dt",)))
            t1 = res.estimated_type1["dt"]
            ks_p = res.ks_pvalue
            ok = abs(t1 - ALPHA) <= DT_BAND and ks_p > 0.01 and res.failures == 0
            lines.append(f"{case} p={p}: type1={t1:.4f} ks_p={ks_p:.3f} "
                         f"fail={res.failures} [{res.elapsed_seconds:.0f}s]")
            if not ok:
                failures.append(lines[-1])
    detail = "18 cells; " + "; ".join(lines)
    _report("1 exactness", not failures, detail)
    assert not failures, f"cells out of band: {failures}"


@pytest.fixture(scope="module")
def kappa03_cell():
    return run_study(_cell("c1", 30, ("lrt", "sko1", "sko2")))


def test_criterion_02_lrt_breakdown(kappa03_cell):
    """LRT rejection 0.613 +- 0.033 at p = 30 and >= 0.995 at p = 50."""
    rate30 = kappa03_cell.estimated_type1["lrt"]
    rate50 = run_study(_cell("c1", 50, ("lrt",))).estimated_type1["lrt"]
    ok = abs(rate30 - 0.613) <= 0.033 and rate50 >= 0.995
    _report("2 LRT breakdown", ok, f"rate(p=30)={rate30:.4f} rate(p=50)={rate50:.4f}")
    assert abs(rate30 - 0.613) <= 0.033
    assert rate50 >= 0.995


def test_criterion_03_skovgaard_collapse(kappa03_cell):
    """Both modified statistics reject at most 1% of the time at kappa 0.3."""
    r1 = kappa03_cell.estimated_type1["sko1"]
    r2 = kappa03_cell.estimated_type1["sko2"]
    ok = r1 <= 0.01 and r2 <= 0.01
    _report("3 Skovgaard collapse", ok, f"sko1={r1:.4f} sko2={r2:.4f}")
    assert ok


def test_criterion_04_equal_covariances_lrt():
    """Pooled-variant LRT rejection 0.102 +- 0.021 at p = 10, three groups."""
    rate = run_study(_cell("c4", 10, ("lrt",))).estimated_type1["lrt"]
    ok = abs(rate - 0.102) <= 0.021
    _report("4 grouped LRT size", ok, f"rate={rate:.4f}")
    assert ok


def test_criterion_05_bartlett_bootstrap():
    """Calibrated Bartlett rescaling holds the 5% level within +-0.02."""
    res = run_study(_cell("c1", 10, ("bc",), bootstrap_reps=1000))
    rate = res.estimated_type1["bc"]
    ok = abs(rate - 0.05) <= 0.02
    _report("5 Bartlett size", ok, f"rate={rate:.4f} e_w_hat/d={res.e_w_hat / 54:.4f}")
    assert ok


def test_criterion_06_information_determinant():
    """Closed-form information log-determinant vs assembled blocks, 1e-8."""
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(3, 60))
        a = rng.standard_normal((p + 3, p))
        lam = symmetrize(a.T @ a / (p + 3) + 0.4 * np.eye(p))
        xi = rng.standard_normal(p)
        assembled = np.linalg.slogdet(info_matrix(xi, np.linalg.inv(lam), n))[1]
        closed = info_log_det(lam, n)
        worst = max(worst, abs(closed - assembled) / max(1.0, abs(assembled)))
    ok = worst <= 1e-8
    _report("6 information determinant", ok, f"worst rel diff={worst:.2e} over 100 draws")
    assert ok


def test_criterion_07_trace_identity():
    """tr of constrained-vs-unconstrained pencil equals p to 1e-8.

    For the shared-concentration group case the identity holds in the
    sample-size-weighted form (the per-group version is false; see the
    one-dimensional counterexample in the unit tests).
    """
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng((MASTER_SEED, 7, i))
        y = rng.standard_normal((40, 6))
        for hyp in (
            ProportionalIdentity(),
            BlockIndependence((3, 2, 1)),
            CompleteIndependence(),
            ZeroPattern(((0, 3), (1, 5), (2, 4))),
        ):
            fit = fit_hypothesis(hyp, y)
            worst = max(worst, abs(float(np.sum(fit.pencil_eigs[0])) - 6.0))
        groups = [rng.standard_normal((20, 6)), 1.5 * rng.standard_normal((25, 6)),
                  0.8 * rng.standard_normal((30, 6))]
        fit = fit_hypothesis(EqualCovariances(), groups)
        weighted = sum(s.n * float(np.sum(nu)) for s, nu in zip(fit.summaries, fit.pencil_eigs))
        worst = max(worst, abs(weighted / fit.n_total - 6.0))
    ok = worst <= 1e-8
    _report("7 trace identity", ok, f"worst abs dev={worst:.2e} over 100 fits x 5 cases")
    assert ok


def test_criterion_08_feasibility_boundary():
    """The eigenvalue bound brackets Cholesky feasibility at +-1e-6."""
    bad = 0
    for i in range(50):
        rng = np.random.default_rng((MASTER_SEED, 8, i))
        fits = [
            fit_hypothesis(ProportionalIdentity(), rng.standard_normal((30, 5))),
            fit_hypothesis(
                EqualCovariances(),
                [rng.standard_normal((20, 4)), rng.standard_normal((20, 4)) * 1.2,
                 rng.standard_normal((20, 4)) * 0.9],
            ),
        ]
        for fit in fits:
            boundary = DirectionalEvaluator(fit).t_sup
            inside = path_estimates(fit, boundary * (1 - 1e-6))
            if not all(is_positive_definite(m) for m in inside.lambda_t_inv):
                bad += 1
                continue
            try:
                outside = path_estimates(fit, boundary * (1 + 1e-6))
                if all(is_positive_definite(m) for m in outside.lambda_t_inv):
                    bad += 1
            except Exception:
                pass  # expected: outside the feasible range
    ok = bad == 0
    _report("8 feasibility boundary", ok, f"{bad} bracket violations over 100 instances")
    assert ok


def _oracle_instances():
    rng = np.random.default_rng((MASTER_SEED, 9))

    def one_sample(hyp, n, p, scale=1.0, shift=0.0):
        return fit_hypothesis(hyp, scale * rng.standard_normal((n, p)) + shift)

    def grouped(hyp, sizes, p):
        return fit_hypothesis(hyp, [rng.standard_normal((m, p)) for m in sizes])

    fits = []
    for _ in range(4):
        fits.append(one_sample(ProportionalIdentity(), 30, 6))
        fits.append(one_sample(CompleteIndependence(), 25, 8))
        fits.append(one_sample(BlockIndependence((3, 3)), 28, 6))
        fits.append(one_sample(SpecifiedMeanCov(np.zeros(4), np.eye(4)), 24, 4, 1.1, 0.2))
        fits.append(grouped(EqualCovariances(), (18, 22), 4))
        fits.append(grouped(EqualDistributions(), (18, 22), 4))
    fits.append(one_sample(ZeroPattern(((0, 2), (1, 4))), 30, 5))
    return fits


def test_criterion_09_quadrature_oracle():
    """Adaptive narrowed-interval p-value vs a million-node trapezoid, 1e-6."""
    worst = 0.0
    for fit in _oracle_instances():
        p_adaptive, _ = directional_pvalue(fit)
        p_dense = trapezoid_pvalue(fit, nodes=1_000_001)
        worst = max(worst, abs(p_adaptive - p_dense))
    ok = worst <= 1e-6
    _report("9 quadrature oracle", ok, f"worst abs diff={worst:.2e} over 25 instances")
    assert ok


def test_criterion_10_curvature_oracle():
    """Closed-form curvature vs central differences, 1e-4 relative."""
    rng = np.random.default_rng((MASTER_SEED, 10))
    cases = [
        fit_hypothesis(ProportionalIdentity(), rng.standard_normal((100, 5))),
        fit_hypothesis(BlockIndependence((3, 2)), rng.standard_normal((100, 5))),
        fit_hypothesis(CompleteIndependence(), rng.standard_normal((100, 5))),
        fit_hypothesis(SpecifiedMeanCov(np.zeros(5), np.eye(5)), rng.standard_normal((100, 5))),
        fit_hypothesis(EqualCovariances(), [rng.standard_normal((60, 4)) for _ in range(3)]),
        fit_hypothesis(EqualDistributions(), [rng.standard_normal((60, 4)) for _ in range(3)]),
    ]
    h = 1e-5
    worst = 0.0
    for fit in cases:
        ev = DirectionalEvaluator(fit)
        hi = min(ev.t_sup * 0.9, 1.8)
        for t in rng.uniform(0.2, hi, size=20):
            fd = (ev.log_gbar(t + h) - 2 * ev.log_gbar(t) + ev.log_gbar(t - h)) / h**2
            worst = max(worst, abs(ev.curvature(t) - fd) / abs(ev.curvature(t)))
    ok = worst <= 1e-4
    _report("10 curvature oracle", ok, f"worst rel diff={worst:.2e} over 6 cases x 20 points")
    assert ok


def test_criterion_11_power_monotone():
    """Corrected power nondecreasing in the extreme strength, above 0.5 at
    the largest strength, and equal to the level at strength zero.

    Known red: the true corrected power at strength 2.0 in this setting is
    ~0.41 (verified against a dense-trapezoid oracle; it is monotone,
    dominates the corrected likelihood ratio test at every strength, and
    crosses 0.5 near strength 3).  The 0.5 threshold at strength 2.0 is
    kept unweakened, so the middle assertion fails by design.
    """
    etas = (0.0, 0.5, 1.0, 2.0)
    powers = []
    for eta in etas:
        res = run_study(_cell("c1", 30, ("dt",), alternative=Extreme(eta)))
        powers.append(res.corrected_power["dt"])

    def se(r):
        return math.sqrt(max(r * (1 - r), 1e-12) / REPS)

    monotone = all(
        powers[i + 1] >= powers[i] - 2 * (se(powers[i]) + se(powers[i + 1]))
        for i in range(len(powers) - 1)
    )
    ok = monotone and powers[-1] > 0.5 and abs(powers[0] - ALPHA) <= DT_BAND
    _report(
        "11 power behavior", ok,
        "corrected power " + ", ".join(f"eta={e}: {p:.4f}" for e, p in zip(etas, powers)),
    )
    assert monotone, f"power not monotone: {powers}"
    assert powers[-1] > 0.5
    assert abs(powers[0] - ALPHA) <= DT_BAND
