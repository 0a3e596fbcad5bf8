"""The directional engine: feasible range, integrand, maximizer, intervals,
quadrature, and the exactness of the resulting p-value."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from dirnormal.core import sample_mvn
from dirnormal.exceptions import NotPositiveDefiniteError
from dirnormal.directional import DirectionalEvaluator, directional_pvalue, integration_interval
from dirnormal.hypotheses import (
    HYPOTHESES,
    BlockIndependence,
    CompleteIndependence,
    EqualCovariances,
    EqualDistributions,
    ProportionalIdentity,
    SpecifiedMeanCov,
    ZeroPattern,
    constrained_mle,
    fit_hypothesis,
)
from dirnormal.simulation import ScenarioSpec, generate_scenario, hypothesis_for, ks_uniformity

from _oracles import (
    TSUP_HORIZON,
    brentq_feasible_sup,
    brentq_peak,
    doubling_interval,
    feasible_sup_scan,
    is_positive_definite,
    path_estimates,
    quad_integral,
    quad_pvalue,
    rank_one_form,
    second_moment,
    trapezoid_pvalue,
)
from test_hypotheses import make_summary


def _log_det(m):
    sign, log_det = np.linalg.slogdet(m)
    assert sign > 0
    return log_det


def _left_out(fit):
    """``sum_g (n_g - p - 2) / 2 log det A``, the constant that
    ``log_gbar`` leaves out; added back to compare with a direct
    determinant."""
    return sum(0.5 * (s.n - fit.p - 2) for s in fit.summaries) * _log_det(fit.lambda0_inv)


def _sampled_fit(hyp, n, p, seed, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    if isinstance(hyp, (EqualCovariances, EqualDistributions)):
        sizes = n if isinstance(n, tuple) else (n, n)
        groups = [scale * rng.standard_normal((n_i, p)) + shift for n_i in sizes]
        return fit_hypothesis(hyp, groups)
    return fit_hypothesis(hyp, scale * rng.standard_normal((n, p)) + shift)


def _peak(fit):
    ev = DirectionalEvaluator(fit)
    return ev.maximize(ev.integration_cap())[0]


ALL_CASES = [
    (ProportionalIdentity(), 20, 4),
    (BlockIndependence((2, 2)), 20, 4),
    (CompleteIndependence(), 20, 4),
    (ZeroPattern(((0, 2), (1, 3))), 20, 4),
    (SpecifiedMeanCov(np.zeros(4), np.eye(4)), 20, 4),
    (EqualCovariances(), (15, 18), 3),
    (EqualDistributions(), (15, 18), 3),
]


def _near_collinear_fit(hyp, n, p, seed):
    """A fit whose second column is nearly the first, so the smallest pencil
    eigenvalue is tiny and ``t_sup`` lies just above 1."""
    rng = np.random.default_rng(seed)

    def draw(rows):
        y = rng.standard_normal((rows, p))
        y[:, 1] = y[:, 0] + 1e-4 * y[:, 1]
        return y

    if isinstance(hyp, (EqualCovariances, EqualDistributions)):
        return fit_hypothesis(hyp, [draw(n_i) for n_i in n])
    return fit_hypothesis(hyp, draw(n))


def _edge_fits():
    """``(label, fit)`` for every null at moderate n, at ``n = p + 2`` and
    with ``t_sup`` just above 1, plus ``p = 1`` and ``d = 1`` fits."""
    out = []
    for i, (hyp, n, p) in enumerate(ALL_CASES):
        name = type(hyp).__name__
        smallest = tuple(p + 2 for _ in n) if isinstance(n, tuple) else p + 2
        out.append((f"{name} n={n}", _sampled_fit(hyp, n, p, seed=90 + i)))
        out.append((f"{name} n=p+2", _sampled_fit(hyp, smallest, p, seed=100 + i)))
        out.append((f"{name} t_sup near 1", _near_collinear_fit(hyp, n, p, seed=110 + i)))
    out.append(("c5 p=1", _sampled_fit(SpecifiedMeanCov(np.zeros(1), np.eye(1)), 8, 1, seed=120)))
    out.append(("c4 p=1 d=1", _sampled_fit(EqualCovariances(), (5, 7), 1, seed=121)))
    out.append(("c3 p=1", _sampled_fit(EqualDistributions(), (3, 3), 1, seed=122)))
    out.append(("c6 p=2 d=1 n=p+2", _sampled_fit(CompleteIndependence(), 4, 2, seed=123)))
    return out


class TestAgainstReplacedSearches:
    """The Newton peak search, the one-call interval and the one pencil
    form against the brentq search, the doubling loop and the rank-one
    form they replaced (tests/_oracles.py)."""

    def test_edge_fits_cover_the_regimes(self):
        fits = [fit for _, fit in _edge_fits()]
        assert {type(f.hypothesis) for f in fits} == {type(h) for h, _, _ in ALL_CASES}
        assert min(f.p for f in fits) == 1 and min(f.d for f in fits) == 1
        assert any(min(s.n for s in f.summaries) == f.p + 2 for f in fits)
        sups = [DirectionalEvaluator(f).t_sup for f in fits]
        assert min(sups) < 1.0 + 1e-6

    def test_newton_peak_matches_brentq_root(self):
        for label, fit in _edge_fits():
            ev = DirectionalEvaluator(fit)
            cap = ev.integration_cap()
            t_hat, evals = ev.maximize(cap)
            assert t_hat == pytest.approx(brentq_peak(fit, cap), rel=1e-12), label
            assert 1 <= evals <= 10, label

    def test_one_call_interval_equals_doubling_loop(self):
        for label, fit in _edge_fits():
            ev = DirectionalEvaluator(fit)
            cap = ev.integration_cap()
            t_hat, _ = ev.maximize(cap)
            g_hat = ev.log_gbar(t_hat)
            curv = ev.curvature(t_hat)
            # narrow, default and wide starts reach free endpoints and both bounds
            for halfwidth in (1e-3, 5.0, 1e3):
                got = integration_interval(ev, t_hat, g_hat, curv, halfwidth, cap)
                assert got == doubling_interval(ev, t_hat, curv, halfwidth, cap), (label, halfwidth)

    def test_linear_path_skips_rank_one_bitwise(self):
        # on a linear path the rank-one factor is log 1 = 0 exactly
        linear = 0
        for label, fit in _edge_fits():
            if fit.pencil_eigs is None:
                continue
            linear += 1
            ev, form = DirectionalEvaluator(fit), rank_one_form(fit)
            cap = ev.integration_cap()
            ts = np.concatenate([np.linspace(-0.5, 1.5 * cap, 997), [0.0, 1.0, cap]])
            assert ev.log_gbar(ts).tobytes() == form.log_gbar(ts).tobytes(), label
            for t in (0.0, 0.5, 1.0, cap):
                assert ev.log_gbar(t) == form.log_gbar(t), label
        assert linear >= 15


class TestTSup:
    def test_closed_form_from_smallest_eigenvalue(self):
        fit = _sampled_fit(ProportionalIdentity(), 25, 4, seed=60)
        nu_min = float(fit.pencil_eigs[0][0])
        assert DirectionalEvaluator(fit).t_sup == pytest.approx(1.0 / (1.0 - nu_min), rel=1e-14)

    def test_half_eigenvalue_gives_two(self):
        # pencil eigenvalues (0.5, 1.5) sum to p and give t_sup = 2
        s = make_summary(np.diag([0.5, 1.5]), n=12)
        fit = constrained_mle(ProportionalIdentity(), [s])
        np.testing.assert_allclose(fit.pencil_eigs[0], [0.5, 1.5], atol=1e-12)
        assert DirectionalEvaluator(fit).t_sup == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_path_is_unbounded(self):
        fit = constrained_mle(ProportionalIdentity(), [make_summary(2.0 * np.eye(3))])
        assert DirectionalEvaluator(fit).t_sup == math.inf

    def test_group_case_uses_worst_group(self):
        fit = _sampled_fit(EqualCovariances(), (15, 20), 3, seed=61)
        nu_min = min(float(nu[0]) for nu in fit.pencil_eigs)
        assert DirectionalEvaluator(fit).t_sup == pytest.approx(1.0 / (1.0 - nu_min), rel=1e-14)

    def test_bisection_matches_grid_scan(self):
        fit = _sampled_fit(SpecifiedMeanCov(np.zeros(3), np.eye(3)), 14, 3, seed=62, shift=0.4)
        boundary = DirectionalEvaluator(fit).t_sup
        # dense scan oracle: largest grid t with a positive definite path
        assert boundary == pytest.approx(feasible_sup_scan(fit, boundary + 0.5), abs=2e-6)

    def test_boundary_brackets_cholesky_feasibility(self):
        for hyp, n, p in [(ProportionalIdentity(), 20, 4), (EqualCovariances(), (15, 18), 3)]:
            _assert_brackets_feasibility(_sampled_fit(hyp, n, p, seed=63))

    @pytest.mark.parametrize("p, n", [(1, 3), (3, 5), (4, 12), (8, 10)])
    def test_quadratic_boundary_brackets_cholesky_feasibility(self, p, n):
        # n = p + 2 in the first, second and last rows
        for seed in range(100):
            mean_cov = _sampled_fit(SpecifiedMeanCov(np.zeros(p), np.eye(p)), n, p, seed=seed)
            pooled = _sampled_fit(EqualDistributions(), (n, n + 1, n), p, seed=seed)
            for fit in (mean_cov, pooled):
                assert math.isfinite(DirectionalEvaluator(fit).t_sup)
                _assert_brackets_feasibility(fit)

    def test_root_search_leaves_no_reference_cycle(self):
        # a cycle through the evaluator would keep its fit's arrays alive
        # until the garbage collector runs
        fit = _sampled_fit(SpecifiedMeanCov(np.zeros(4), np.eye(4)), 20, 4, seed=82)
        gc.disable()
        try:
            ev = DirectionalEvaluator(fit)
            assert math.isfinite(ev.t_sup)
            ref = weakref.ref(ev)
            del ev
            assert ref() is None
        finally:
            gc.enable()


def _quadratic_path_fits():
    """``(label, fit)`` for c3 with two and three groups and for c5: at
    moderate n, at ``n = p + 2``, at ``p = 1``, with ``t_sup`` just above 1,
    and c5 fits whose rank-one coordinate is 0 at the smallest pencil
    eigenvalue (the rank-one factor ending just before ``t_lin``, or
    outlasting it) or whose root lies past ``TSUP_HORIZON``."""
    c5 = SpecifiedMeanCov
    out = []
    for i, (name, hyp, n, p) in enumerate([
        ("c3 k=2", EqualDistributions(), (15, 18), 3),
        ("c3 k=3", EqualDistributions(), (12, 15, 18), 4),
        ("c5", c5(np.zeros(4), np.eye(4)), 20, 4),
    ]):
        smallest = tuple(p + 2 for _ in n) if isinstance(n, tuple) else p + 2
        one = tuple(3 + j for j in range(len(n))) if isinstance(n, tuple) else 6
        hyp1 = c5(np.zeros(1), np.eye(1)) if name == "c5" else hyp
        for seed in range(4):
            out.append((f"{name} n={n}", _sampled_fit(hyp, n, p, seed=130 + 10 * i + seed, shift=0.2 * seed)))
            out.append((f"{name} n=p+2", _sampled_fit(hyp, smallest, p, seed=170 + 10 * i + seed)))
            out.append((f"{name} p=1", _sampled_fit(hyp1, one, 1, seed=210 + 10 * i + seed,
                                                    scale=0.5 + 0.5 * seed)))
            out.append((f"{name} t_sup near 1", _near_collinear_fit(hyp, n, p, seed=250 + 10 * i + seed)))
    for b in (0.4, 2.0):
        s = make_summary(np.diag([2.0, 1.5, 0.3]), n=12, ybar=[b, 0.0, 0.0])
        out.append((f"c5 zero c at the smallest eigenvalue, b={b}",
                    constrained_mle(c5(np.zeros(3), np.eye(3)), [s])))
    s = make_summary(np.array([[1.5]]), n=8, ybar=[1e-5])
    out.append(("c5 root past 1e8", constrained_mle(c5(np.zeros(1), np.eye(1)), [s])))
    return out


class TestTSupRankOneMargin:
    """``t_sup`` from the bordered pencil's eigenvalues against the
    ``brentq`` root of the rank-one margin (tests/_oracles.py)."""

    def test_fits_cover_the_regimes(self):
        fits = _quadratic_path_fits()
        assert all(fit.pencil_eigs is None for _, fit in fits)
        assert {fit.k for _, fit in fits} == {1, 2, 3}
        assert min(fit.p for _, fit in fits) == 1
        assert any(min(s.n for s in fit.summaries) == fit.p + 2 for _, fit in fits)
        forms = [rank_one_form(fit) for _, fit in fits]
        sups = [brentq_feasible_sup(form.mu, form.c2) for form in forms]
        lins = [1.0 / (1.0 - m) if m < 1.0 else math.inf for m in (float(form.mu.min()) for form in forms)]
        assert min(sups) < 1.0 + 1e-6 and math.inf in sups
        # ranges ended by the linear factors (brentq stops a rounding short
        # of t_lin), and by the rank-one factor short of a finite and of an
        # infinite t_lin
        assert any(t == pytest.approx(lin, rel=1e-13) for t, lin in zip(sups, lins) if math.isfinite(lin))
        assert any(t < (1.0 - 1e-6) * lin for t, lin in zip(sups, lins) if math.isfinite(lin))
        assert any(math.isfinite(t) for t, lin in zip(sups, lins) if math.isinf(lin))
        assert all(form.c2[0, np.argmin(form.mu[0])] == 0.0 for form in forms[-3:-1])

    def test_matches_brentq_search(self):
        for label, fit in _quadratic_path_fits():
            got = DirectionalEvaluator(fit).t_sup
            form = rank_one_form(fit)
            want = brentq_feasible_sup(form.mu, form.c2)
            if math.isinf(want):
                # a root past the oracle's horizon, which the bordered
                # pencil's smallest eigenvalue places there too, finite
                assert TSUP_HORIZON < got < math.inf, label
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), label


def _assert_brackets_feasibility(fit):
    boundary = DirectionalEvaluator(fit).t_sup
    inside = path_estimates(fit, boundary * (1 - 1e-6))
    assert all(is_positive_definite(m) for m in inside.lambda_t_inv)
    with pytest.raises(NotPositiveDefiniteError):
        path_estimates(fit, boundary * (1 + 1e-6))


class TestLogGbar:
    def test_finite_at_observed_point(self):
        for hyp, n, p in ALL_CASES:
            fit = _sampled_fit(hyp, n, p, seed=64)
            val = DirectionalEvaluator(fit).log_gbar(1.0) + _left_out(fit)
            expected = sum(
                0.5 * (s.n - p - 2) * _log_det(s.mle_cov) for s in fit.summaries
            )
            if isinstance(hyp, SpecifiedMeanCov):
                s = fit.summaries[0]
                expected += 0.5 * s.n * (p - np.trace(second_moment(s)))
            assert math.isfinite(val)
            assert val == pytest.approx(expected, rel=1e-10)

    def test_eigenvalue_form_matches_direct_determinant(self):
        # pencil shortcut against a per-t factorization of the actual path
        fit = _sampled_fit(ProportionalIdentity(), 25, 5, seed=65)
        ev = DirectionalEvaluator(fit)
        rng = np.random.default_rng(66)
        s = fit.summaries[0]
        ld0 = _log_det(fit.lambda0_inv)
        for t in rng.uniform(0.01, ev.t_sup * 0.999, size=50):
            direct = _log_det(path_estimates(fit, t).lambda_t_inv[0])
            shortcut = ld0 + float(np.sum(np.log(1 - t + t * fit.pencil_eigs[0])))
            assert shortcut == pytest.approx(direct, abs=1e-10)
            expected = (fit.d - 1) * np.log(t) + 0.5 * (s.n - fit.p - 2) * direct
            assert ev.log_gbar(t) + _left_out(fit) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("hyp, n, p", [
        (SpecifiedMeanCov(np.zeros(5), np.eye(5)), 25, 5),
        (EqualDistributions(), (12, 15, 20), 4),
        (SpecifiedMeanCov(np.zeros(1), np.eye(1)), 8, 1),
        (EqualDistributions(), (3, 5), 1),
        (SpecifiedMeanCov(np.zeros(5), np.eye(5)), 7, 5),  # n = p + 2
        (EqualDistributions(), (6, 6, 6), 4),  # n = p + 2
    ])
    def test_rank_one_form_matches_direct_determinant(self, hyp, n, p):
        # bordered-pencil evaluation against a per-t factorization of the
        # quadratic path
        fit = _sampled_fit(hyp, n, p, seed=80, shift=0.3)
        ev = DirectionalEvaluator(fit)
        slope = 0.0
        if isinstance(hyp, SpecifiedMeanCov):
            s = fit.summaries[0]
            slope = 0.5 * s.n * (p - np.trace(second_moment(s)))
        rng = np.random.default_rng(81)
        for t in rng.uniform(0.0, ev.t_sup * 0.999, size=50):
            direct = path_estimates(fit, t).lambda_t_inv
            expected = (fit.d - 1) * np.log(t) + slope * t + sum(
                0.5 * (s.n - p - 2) * _log_det(m) for s, m in zip(fit.summaries, direct)
            )
            assert ev.log_gbar(t) + _left_out(fit) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("hyp, n, p", [
        (EqualDistributions(), (15, 18), 3),
        (EqualDistributions(), (12, 15, 18), 4),
        (SpecifiedMeanCov(np.zeros(4), np.eye(4)), 20, 4),
    ])
    def test_quadratic_path_takes_eigenvalues_only(self, monkeypatch, hyp, n, p):
        # one eigvalsh per group for the bordered pencil, no eigenvectors;
        # the spectrum is cached on the fit, so a fresh fit is counted after
        # another has cached the Gauss-Legendre nodes, an eigenproblem too
        directional_pvalue(_sampled_fit(hyp, n, p, seed=83, shift=0.3))
        fit = _sampled_fit(hyp, n, p, seed=82, shift=0.3)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def forbidden(*args):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        directional_pvalue(fit)
        assert len(calls) == fit.k

    def test_identical_groups_symmetric_contributions(self):
        rng = np.random.default_rng(67)
        block = rng.standard_normal((15, 3))
        fit = fit_hypothesis(EqualDistributions(), [block, block.copy(), block.copy()])
        single = fit_hypothesis(EqualDistributions(), [block, block.copy()])
        # with identical groups the pooled fit equals each group fit and the
        # integrand reduces to the jacobian plus a weighted constant term
        ev = DirectionalEvaluator(fit)
        for t in (0.3, 0.8, 1.0, 1.2):
            per_group = 0.5 * (15 - 3 - 2) * _log_det(path_estimates(fit, t).lambda_t_inv[0])
            expected = (fit.d - 1) * np.log(t) + 3 * per_group
            assert ev.log_gbar(t) + _left_out(fit) == pytest.approx(expected, rel=1e-10)
        assert single.d * 2 == fit.d  # interest dimension scales with group count

    def test_returns_neg_inf_outside_range(self):
        fit = _sampled_fit(CompleteIndependence(), 20, 3, seed=68)
        ev = DirectionalEvaluator(fit)
        assert ev.log_gbar(ev.t_sup * 1.01) == -math.inf
        assert ev.log_gbar(-0.5) == -math.inf


class TestMaximize:
    def test_quadratic_mock_exact_argmax(self):
        fit = _sampled_fit(ProportionalIdentity(), 20, 3, seed=69)
        ev = DirectionalEvaluator(fit)
        ev.slope_and_curvature = lambda t: (-2.0 * (t - 1.2345678), -2.0)
        t_hat, _ = ev.maximize(t_cap=3.0)
        assert t_hat == pytest.approx(1.2345678, abs=1e-14)

    def test_null_data_peak_near_one(self):
        # the peak fluctuates around 1 with spread ~ 1/sqrt(2d), so the
        # tight window needs a moderate interest dimension to hold
        hits_wide = hits_tight = 0
        for seed in range(40):
            y5 = sample_mvn(np.zeros(5), np.eye(5), 500, seed=seed)
            if 0.5 < _peak(fit_hypothesis(ProportionalIdentity(), y5)) < 1.6:
                hits_wide += 1
            y15 = sample_mvn(np.zeros(15), np.eye(15), 500, seed=seed)
            if 0.8 < _peak(fit_hypothesis(ProportionalIdentity(), y15)) < 1.2:
                hits_tight += 1
        assert hits_wide >= 38
        assert hits_tight >= 38

    def test_maximum_beats_neighbours(self):
        for hyp, n, p in ALL_CASES:
            fit = _sampled_fit(hyp, n, p, seed=70)
            ev = DirectionalEvaluator(fit)
            cap = ev.integration_cap()
            t_hat, _ = ev.maximize(cap)
            g_hat = ev.log_gbar(t_hat)
            grid = np.linspace(1e-6, cap * (1 - 1e-9), 2001)
            assert g_hat >= np.max(ev.log_gbar(grid)) - 1e-7


class TestCurvature:
    def test_pure_jacobian_when_eigenvalues_unit(self):
        # only the jacobian curves when all pencil eigenvalues are 1 except
        # the degenerate flag; emulate via a two-eigenvalue pencil at 1
        s = make_summary(np.diag([0.5, 1.5]), n=12)
        fit = constrained_mle(ProportionalIdentity(), [s])
        ev = DirectionalEvaluator(fit)
        w = 0.5 * (12 - 2 - 2)
        for t in (0.5, 1.0, 1.5):
            manual = -(fit.d - 1) / t**2 - w * sum(
                (1 - nu) ** 2 / (1 - t + t * nu) ** 2 for nu in (0.5, 1.5)
            )
            assert ev.curvature(t) == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("case_idx", range(len(ALL_CASES)))
    def test_matches_finite_differences(self, case_idx):
        hyp, n, p = ALL_CASES[case_idx]
        fit = _sampled_fit(hyp, n, p, seed=71)
        ev = DirectionalEvaluator(fit)
        # interior points away from the boundary keep the cancellation noise
        # of the second difference well below the tolerance
        cap = min(ev.t_sup, 3.0)
        rng = np.random.default_rng(72)
        h = 1e-5
        for t in rng.uniform(0.2, min(cap * 0.9, 1.6), size=20):
            fd = (ev.log_gbar(t + h) - 2 * ev.log_gbar(t) + ev.log_gbar(t - h)) / h**2
            assert ev.curvature(t) == pytest.approx(fd, rel=1e-4)


class TestIntegrationInterval:
    def test_plugin_clipping(self):
        fit = _sampled_fit(ProportionalIdentity(), 20, 3, seed=73)
        ev = DirectionalEvaluator(fit)
        ev.log_gbar = lambda t: np.asarray(t) * 0.0 - 0.0  # flat: no widening exit
        lo, hi = integration_interval(ev, t_hat=1.0, g_hat=0.0, curvature_at_t_hat=-1.0,
                                      halfwidth=5.0, t_cap=10.0)
        assert lo == 0.0
        assert hi == 10.0  # widening runs to the cap on a flat integrand

    def test_sharp_peak_accepted_immediately(self):
        fit = _sampled_fit(ProportionalIdentity(), 20, 3, seed=73)
        ev = DirectionalEvaluator(fit)
        ev.log_gbar = lambda t: -1e6 * (np.asarray(t) - 1.0) ** 2
        lo, hi = integration_interval(ev, t_hat=1.0, g_hat=0.0, curvature_at_t_hat=-2e6,
                                      halfwidth=5.0, t_cap=10.0)
        width = hi - lo
        assert width < 2e-2
        assert lo <= 1.0 <= hi

    def test_contains_observed_point_and_drops_enough(self):
        for hyp, n, p in ALL_CASES:
            fit = _sampled_fit(hyp, n, p, seed=74)
            ev = DirectionalEvaluator(fit)
            cap = ev.integration_cap()
            t_hat, _ = ev.maximize(cap)
            g_hat = ev.log_gbar(t_hat)
            lo, hi = integration_interval(ev, t_hat, g_hat, ev.curvature(t_hat), 5.0, cap)
            assert 0.0 <= lo <= 1.0 <= hi <= cap
            # the drop requirement applies to endpoints that were neither
            # clipped at the range boundary nor pulled to the observed point
            if 0.0 < lo < 1.0:
                assert g_hat - ev.log_gbar(lo) >= 40.0
            if 1.0 < hi < cap:
                assert g_hat - ev.log_gbar(hi) >= 40.0


class TestDirectionalPvalue:
    def test_matches_dense_trapezoid_small_case(self):
        rng = np.random.default_rng(75)
        y = rng.standard_normal((12, 2))
        fit = fit_hypothesis(CompleteIndependence(), y)
        p, diag = directional_pvalue(fit)
        assert p == pytest.approx(trapezoid_pvalue(fit), abs=1e-6)
        assert diag.numerator / diag.denominator == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("hyp, n, p", [
        (CompleteIndependence(), 4, 2),  # d = 1
        (SpecifiedMeanCov(np.zeros(3), np.eye(3)), 5, 3),
        (EqualDistributions(), (5, 5), 3),
    ])
    def test_matches_dense_trapezoid_at_smallest_n(self, hyp, n, p):
        # n = p + 2: zero weights, so the integrand does not vanish at t_sup
        fit = _sampled_fit(hyp, n, p, seed=75)
        p_val, _ = directional_pvalue(fit)
        assert p_val == pytest.approx(trapezoid_pvalue(fit), abs=1e-6)

    def test_constant_shift_invariance(self, monkeypatch):
        fit = _sampled_fit(CompleteIndependence(), 20, 3, seed=76)
        p_base, _ = directional_pvalue(fit)
        original = DirectionalEvaluator.log_gbar
        monkeypatch.setattr(
            DirectionalEvaluator, "log_gbar", lambda self, t: original(self, t) + 123.25
        )
        p_shifted, _ = directional_pvalue(fit)
        assert p_shifted == pytest.approx(p_base, abs=1e-12)

    def test_scale_invariance_proportional_case(self):
        rng = np.random.default_rng(77)
        y = rng.standard_normal((25, 4))
        p1, _ = directional_pvalue(fit_hypothesis(ProportionalIdentity(), y))
        p2, _ = directional_pvalue(fit_hypothesis(ProportionalIdentity(), 5.5 * y))
        assert p1 == pytest.approx(p2, abs=1e-10)

    def test_degenerate_reports_one(self):
        fit = constrained_mle(ProportionalIdentity(), [make_summary(2.0 * np.eye(3))])
        p, diag = directional_pvalue(fit)
        assert p == 1.0
        assert fit.degenerate and math.isnan(diag.t_hat)

    def test_fixed_grid_matches_adaptive(self):
        fit = _sampled_fit(EqualDistributions(), (15, 18), 3, seed=78)
        p_engine, _ = directional_pvalue(fit)
        assert p_engine == pytest.approx(trapezoid_pvalue(fit), abs=1e-7)

    def test_disagreeing_resolutions_double_the_panels(self, monkeypatch):
        # a bump on the upper side too narrow for either Gauss-Legendre
        # resolution makes that side, and only that side, double its panels
        fit = _sampled_fit(CompleteIndependence(), 20, 3, seed=76)
        _, base = directional_pvalue(fit)
        assert base.quad_escalations == 0 and base.n_evals > 0
        centre = 0.5 * (1.0 + base.t_max)
        width = 0.003 * (base.t_max - 1.0)
        g_peak = DirectionalEvaluator(fit).log_gbar(base.t_hat)
        original = DirectionalEvaluator.log_gbar

        def bumped(self, t):
            bump = math.log(0.01) + g_peak - 0.5 * ((np.asarray(t) - centre) / width) ** 2
            return np.logaddexp(original(self, t), bump)

        monkeypatch.setattr(DirectionalEvaluator, "log_gbar", bumped)
        p_val, diag = directional_pvalue(fit)
        assert diag.quad_escalations == 1
        assert diag.n_evals > base.n_evals
        ev = DirectionalEvaluator(fit)
        g_hat = ev.log_gbar(diag.t_hat)

        def f(t):
            return math.exp(ev.log_gbar(t) - g_hat)

        assert 1.0 < diag.t_hat < diag.t_max
        upper = quad_integral(f, 1.0, diag.t_max, (centre, diag.t_hat))
        lower = quad_integral(f, diag.t_min, 1.0)
        assert p_val == pytest.approx(upper / (upper + lower), abs=1e-12)

    def test_uniform_under_null_small_study(self):
        pvals = []
        for seed in range(400):
            y = sample_mvn(np.zeros(3), np.eye(3), 12, seed=(800, seed))
            fit = fit_hypothesis(CompleteIndependence(), y)
            pvals.append(directional_pvalue(fit)[0])
        stat, ks_p = ks_uniformity(np.array(pvals))
        assert ks_p > 0.01
        rate = np.mean(np.array(pvals) <= 0.05)
        assert abs(rate - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / 400)

    def test_quad_error_holds_the_tail_bounds(self):
        free_ends = 0
        for hyp, n, p in ALL_CASES:
            # large samples: a sharp peak leaves tails outside the interval
            n = tuple(20 * m for m in n) if isinstance(n, tuple) else 20 * n
            fit = _sampled_fit(hyp, n, p, seed=80)
            _, diag = directional_pvalue(fit)
            ev = DirectionalEvaluator(fit)
            g_hat = ev.log_gbar(diag.t_hat)

            def f(t):
                return math.exp(ev.log_gbar(t) - g_hat)

            tails = 0.0
            for end, bound in ((diag.t_min, 0.0), (diag.t_max, diag.t_cap)):
                if end == bound:
                    continue
                bound_here = f(end) / abs(ev.slope_and_curvature(end)[0])
                # the concavity bound holds the tail it stands for
                outside = quad(f, *sorted((bound, end)), epsabs=0.0, limit=200)[0]
                assert outside <= bound_here * (1.0 + 1e-9)
                tails += bound_here
                free_ends += 1
            assert diag.quad_escalations == 0
            # the rest is the gap between the two resolutions, within tolerance
            assert tails <= diag.quad_error <= tails + 2 * 1e-9 * diag.denominator
        assert free_ends >= 7

    def test_diagnostics_invariants(self):
        for hyp, n, p in ALL_CASES:
            fit = _sampled_fit(hyp, n, p, seed=79)
            p_val, diag = directional_pvalue(fit)
            assert 0.0 <= p_val <= 1.0
            assert 0.0 <= diag.t_min <= 1.0 <= diag.t_max <= diag.t_cap
            assert 0.0 < diag.t_hat < diag.t_cap
            assert diag.curvature_at_t_hat < 0.0
            assert 1 <= diag.peak_evals <= 10
            assert 0.0 <= diag.quad_error <= 1e-8 * diag.denominator


def _null_fit(case, p, n, rep=0, seed=16):
    """Fit of null data with ``n`` rows in every group: the simulation's
    scenario for c1-c6 (three groups for c3 and c4), standard normal data
    under two zero pairs for ``pattern``."""
    if case == "pattern":
        rng = np.random.default_rng((seed, p, n, rep))
        return fit_hypothesis(ZeroPattern(((0, 2), (1, 3))), rng.standard_normal((n, p)))
    spec = ScenarioSpec(case=case, n=(n,) * 3 if HYPOTHESES[case].grouped else n, p=p, seed=seed)
    return fit_hypothesis(hypothesis_for(spec), generate_scenario(spec, rep))


class TestMleBoundary:
    """At ``n = p + 2`` and ``p + 3`` the integrand peaks on or hard against
    ``t_sup``, where it vanishes like a half-integer power of
    ``t_sup - t`` (or, at ``n = p + 2``, does not vanish at all)."""

    CASES = ("c1", "c2", "c3", "c4", "c5", "c6", "pattern")

    def test_base_pair_matches_quad_oracle(self):
        fits = [(f"{case} p={p} n={n}", _null_fit(case, p, n))
                for case in self.CASES for p in (5, 30, 90) for n in (p + 2, p + 3)]
        # the nodes at the upper end are in sqrt(t_sup - t) on both sides,
        # which matters most when t_sup lies just above 1
        fits.append(("c1 p=90 n=93 t_sup near 1", _null_fit("c1", 90, 93, rep=9)))
        near_one = 0
        for label, fit in fits:
            p_val, diag = directional_pvalue(fit)
            assert diag.quad_escalations == 0, label
            assert p_val == pytest.approx(quad_pvalue(fit), abs=1e-8), label
            assert diag.quad_error <= 1e-8 * diag.denominator, label
            near_one += diag.t_sup - 1.0 < 1e-4
        assert near_one >= 1

    @pytest.mark.parametrize("case", ["c1", "c2", "c3", "c4", "c6", "pattern"])
    def test_closed_form_at_smallest_n(self, case):
        # Every weight (n - p - 2) / 2 is 0, and so is the linear term of
        # these nulls, so the integrand is t**(d - 1) on [0, t_sup] and
        # p = 1 - t_sup**-d: no quadrature needed.
        for p in (5, 30, 90):
            for rep in range(20):
                fit = _null_fit(case, p, p + 2, rep)
                p_val, diag = directional_pvalue(fit)
                closed = -math.expm1(-fit.d * math.log(diag.t_sup))
                assert p_val == pytest.approx(closed, abs=1e-10), (p, rep)

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_unbounded_range_is_truncated(self, p):
        # c5 on data centred exactly at mu0 whose covariance exceeds A in
        # every direction: every bordered-pencil eigenvalue is at least 1,
        # so t_sup is infinite and integration_cap truncates the range by
        # doubling.
        rng = np.random.default_rng((19, p))
        z = rng.standard_normal((40, p))
        z -= z.mean(axis=0)
        y = math.sqrt(1.5) * z @ np.linalg.inv(np.linalg.cholesky(z.T @ z / 40)).T  # covariance 1.5 I
        fit = fit_hypothesis(SpecifiedMeanCov(np.zeros(p), np.eye(p)), y)
        p_val, diag = directional_pvalue(fit)
        assert diag.t_sup == math.inf
        assert 0.0 <= p_val <= 1.0
        assert p_val == pytest.approx(quad_pvalue(fit), abs=1e-8)


class TestInvariance:
    """The directional p-value does not move under the maps of the data
    that carry each null into itself."""

    @staticmethod
    def _pvalue(hyp, data):
        p, _ = directional_pvalue(fit_hypothesis(hyp, data))
        assert 1e-3 < p < 0.999  # away from the ends, where every map agrees
        return p

    @pytest.mark.parametrize("hyp", [EqualDistributions(), EqualCovariances()])
    def test_grouped_nulls_under_one_affine_map(self, hyp):
        rng = np.random.default_rng(130)
        p = 4
        groups = [rng.standard_normal((n, p)) * (1.0 + 0.1 * i) + 0.1 * i for i, n in enumerate((15, 20, 25))]
        a = np.eye(p) + 0.4 * rng.standard_normal((p, p))
        c = 3.0 * rng.standard_normal(p)
        moved = [y @ a.T + c for y in groups]
        assert self._pvalue(hyp, moved) == pytest.approx(self._pvalue(hyp, groups), abs=1e-10)

    def test_complete_independence_under_column_scaling_and_permutation(self):
        rng = np.random.default_rng(131)
        y = rng.standard_normal((20, 5)) @ (np.eye(5) + 0.1 * rng.standard_normal((5, 5)))
        perm, scales = rng.permutation(5), np.logspace(-2, 2, 5)
        base = self._pvalue(CompleteIndependence(), y)
        assert self._pvalue(CompleteIndependence(), y * scales) == pytest.approx(base, abs=1e-10)
        assert self._pvalue(CompleteIndependence(), y[:, perm]) == pytest.approx(base, abs=1e-10)

    def test_block_independence_under_block_permutation_and_maps(self):
        rng = np.random.default_rng(132)
        y = rng.standard_normal((20, 5)) @ (np.eye(5) + 0.1 * rng.standard_normal((5, 5)))
        base = self._pvalue(BlockIndependence((2, 3)), y)
        swapped = np.hstack([y[:, 2:], y[:, :2]])
        assert self._pvalue(BlockIndependence((3, 2)), swapped) == pytest.approx(base, abs=1e-10)
        within = np.hstack([y[:, :2] @ (np.eye(2) + 0.5 * rng.standard_normal((2, 2))) + 1.0,
                            y[:, 2:] @ (np.eye(3) + 0.5 * rng.standard_normal((3, 3))) - 2.0])
        assert self._pvalue(BlockIndependence((2, 3)), within) == pytest.approx(base, abs=1e-10)

    def test_zero_pattern_under_a_joint_permutation(self):
        rng = np.random.default_rng(133)
        y = rng.standard_normal((20, 5)) @ (np.eye(5) + 0.1 * rng.standard_normal((5, 5)))
        pairs = ((0, 2), (0, 4), (1, 3), (2, 4))
        perm = rng.permutation(5)  # column k of the permuted data is column perm[k]
        where = np.argsort(perm)
        moved_pairs = tuple((int(where[i]), int(where[j])) for i, j in pairs)
        base = self._pvalue(ZeroPattern(pairs), y)
        assert self._pvalue(ZeroPattern(moved_pairs), y[:, perm]) == pytest.approx(base, abs=1e-10)
