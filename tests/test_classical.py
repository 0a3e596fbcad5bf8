"""LRT closed forms, correction factor, Bartlett bootstrap, chi-square tail."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dirnormal.classical import (
    bartlett_rescale,
    chisq_upper_tail,
    classical_report,
    skovgaard_log_gamma,
    skovgaard_stats,
)
from dirnormal.exceptions import DegenerateNullError
from dirnormal.hypotheses import (
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
from dirnormal.simulation import bartlett_bootstrap

from _oracles import brute_log_gamma, canonical_loglik, maximize_loglik_moment
from test_hypotheses import make_summary


class TestChisqUpperTail:
    def test_at_zero(self):
        assert chisq_upper_tail(0.0, 3) == 1.0

    def test_two_dof_closed_form(self):
        # the 2-dof tail is exp(-x/2), so x = 2 log 20 gives exactly 0.05
        assert chisq_upper_tail(2 * math.log(20.0), 2) == pytest.approx(0.05, rel=1e-12)

    def test_against_density_quadrature(self):
        # integrate the 10-dof density numerically past 18.307
        def density(x):
            return x**4 * np.exp(-x / 2) / (2**5 * math.gamma(5))

        oracle, _ = quad(density, 18.307, np.inf)
        assert chisq_upper_tail(18.307, 10) == pytest.approx(oracle, abs=5e-4)
        assert abs(oracle - 0.05) < 5e-4

    def test_monotone_decreasing(self):
        xs = np.linspace(0, 30, 40)
        vals = [chisq_upper_tail(x, 5) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestLrt:
    def test_zero_when_already_proportional(self):
        fit = constrained_mle(ProportionalIdentity(), [make_summary(1.7 * np.eye(3))])
        assert fit.hypothesis.lrt(fit) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_exact_null_specified_case(self):
        y = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) * np.sqrt(2)
        fit = fit_hypothesis(SpecifiedMeanCov(np.zeros(2), np.eye(2)), y)
        assert fit.hypothesis.lrt(fit) == pytest.approx(0.0, abs=1e-10)

    def test_complete_independence_matches_optimizer_oracle(self):
        rng = np.random.default_rng(40)
        y = rng.standard_normal((18, 3)) @ np.diag([1.0, 1.4, 0.7])
        fit = fit_hypothesis(CompleteIndependence(), y)
        s = fit.summaries[0]
        full = maximize_loglik_moment(s)
        constrained = maximize_loglik_moment(s, constrain_diag=True)
        assert fit.hypothesis.lrt(fit) == pytest.approx(2.0 * (full - constrained), abs=1e-6)

    # (hypothesis, p, group sizes): every null, with p = 1 and n = p + 2
    LOGLIK_CASES = [
        (ProportionalIdentity(), 4, (25,)),
        (BlockIndependence((2, 2)), 4, (25,)),
        (CompleteIndependence(), 4, (25,)),
        (ZeroPattern(((0, 3), (1, 2))), 4, (25,)),
        (ProportionalIdentity(), 3, (5,)),
        (BlockIndependence((1, 2)), 3, (5,)),
        (CompleteIndependence(), 2, (4,)),
        (ZeroPattern(((0, 3), (1, 2))), 4, (6,)),
        (EqualDistributions(), 4, (25, 6, 14)),
        (EqualDistributions(), 1, (3, 8)),
        (EqualCovariances(), 4, (25, 6, 14)),
        (EqualCovariances(), 1, (3, 8)),
        (SpecifiedMeanCov([0.2, -0.1, 0.4], [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]]), 3, (15,)),
        (SpecifiedMeanCov([0.3], [[2.0]]), 1, (3,)),
    ]

    @pytest.mark.parametrize("hyp, p, sizes", LOGLIK_CASES,
                             ids=[f"hyp{i}" for i in range(len(LOGLIK_CASES))])
    def test_equals_twice_loglik_drop(self, hyp, p, sizes):
        rng = np.random.default_rng(41)
        groups = [rng.standard_normal((n, p)) * 1.3 for n in sizes]
        fit = fit_hypothesis(hyp, groups if hyp.grouped else groups[0])
        lam0 = np.linalg.inv(fit.lambda0_inv)
        drop = 0.0
        for s, mu0 in zip(fit.summaries, fit.mu0):
            lam_hat = np.linalg.inv(s.mle_cov)
            drop += canonical_loglik(lam_hat @ s.ybar, lam_hat, s) - canonical_loglik(lam0 @ mu0, lam0, s)
        assert fit.plain_w == pytest.approx(2.0 * drop, rel=1e-8, abs=1e-10)
        if not isinstance(hyp, (EqualCovariances, SpecifiedMeanCov)):  # their own forms are below
            assert hyp.lrt(fit) == fit.plain_w

    def test_scale_invariance_proportional_case(self):
        rng = np.random.default_rng(42)
        y = rng.standard_normal((30, 4))
        hyp = ProportionalIdentity()
        w1 = hyp.lrt(fit_hypothesis(hyp, y))
        w2 = hyp.lrt(fit_hypothesis(hyp, 3.7 * y))
        assert w1 == pytest.approx(w2, abs=1e-10)

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(43)
        y = rng.standard_normal((25, 4))
        hyp = BlockIndependence((2, 2))
        base = hyp.lrt(fit_hypothesis(hyp, y))
        permuted = hyp.lrt(fit_hypothesis(hyp, y[:, [1, 0, 3, 2]]))
        assert base == pytest.approx(permuted, rel=1e-10)

    def test_equal_covariances_uses_pooled_adjusted_estimates(self):
        rng = np.random.default_rng(44)
        groups = [rng.standard_normal((12, 2)), rng.standard_normal((16, 2)) * 1.3]
        fit = fit_hypothesis(EqualCovariances(), groups)
        a = [s.n * s.mle_cov for s in fit.summaries]
        pooled = (a[0] + a[1]) / (12 + 16 - 2)
        expected = sum(
            (n_i - 1) * (np.linalg.slogdet(pooled)[1] - np.linalg.slogdet(a_i / (n_i - 1))[1])
            for n_i, a_i in zip((12, 16), a)
        )
        assert fit.hypothesis.lrt(fit) == pytest.approx(expected, rel=1e-12)

    def test_specified_mean_cov_weights_log_det_by_n_minus_one(self):
        # with A = inv(lambda0): log det(A^-1 V) = log det V + log det lambda0,
        # and n tr(A^-1 M) = tr(lambda0 D'D), D = y - mu0
        rng = np.random.default_rng(52)
        mu0 = np.array([0.2, -0.1, 0.4])
        lam0 = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
        y = rng.standard_normal((15, 3)) * 1.3 + 0.5
        n, p = y.shape
        ld_v = np.linalg.slogdet(np.cov(y.T, bias=True))[1] + np.linalg.slogdet(lam0)[1]
        assert abs(ld_v) > 0.1
        dev = y - mu0
        expected = -(n - 1) * ld_v + np.trace(lam0 @ dev.T @ dev) - n * p
        fit = fit_hypothesis(SpecifiedMeanCov(mu0, lam0), y)
        assert fit.hypothesis.lrt(fit) == pytest.approx(expected, rel=1e-10)


class TestSkovgaardGamma:
    @pytest.mark.parametrize(
        "hyp,shape",
        [
            (ProportionalIdentity(), (20, 2)),
            (CompleteIndependence(), (22, 3)),
            (BlockIndependence((2, 1)), (25, 3)),
            (ZeroPattern(((0, 2),)), (25, 3)),
            (SpecifiedMeanCov(np.zeros(3), np.eye(3)), (25, 3)),
            (SpecifiedMeanCov(np.zeros(1), np.eye(1)), (20, 1)),  # p = 1
            (SpecifiedMeanCov(np.zeros(3), np.eye(3)), (5, 3)),  # n = p + 2
        ],
    )
    def test_one_sample_matches_first_principles(self, hyp, shape):
        rng = np.random.default_rng(45)
        y = rng.standard_normal(shape) * 1.2 + 0.1
        fit = fit_hypothesis(hyp, y)
        assert skovgaard_log_gamma(fit) == pytest.approx(brute_log_gamma(fit), abs=1e-9)

    def test_group_cases_match_first_principles(self):
        rng = np.random.default_rng(46)
        groups = [rng.standard_normal((20, 2)) + 0.3, rng.standard_normal((25, 2)) * 1.2]
        for hyp in (EqualCovariances(), EqualDistributions()):
            fit = fit_hypothesis(hyp, groups)
            assert skovgaard_log_gamma(fit) == pytest.approx(brute_log_gamma(fit), abs=1e-9)
        three = [rng.standard_normal((30, 3)) + 0.1, rng.standard_normal((22, 3)) * 1.1,
                 rng.standard_normal((40, 3))]
        fit = fit_hypothesis(EqualDistributions(), three)
        assert skovgaard_log_gamma(fit) == pytest.approx(brute_log_gamma(fit), abs=1e-9)
        # p = 1, and n = p + 2 in every group
        for shapes in (((20, 1), (25, 1)), ((5, 3), (5, 3), (5, 3))):
            groups = [rng.standard_normal(shape) * (1.0 + 0.2 * i) + 0.1 * i
                      for i, shape in enumerate(shapes)]
            fit = fit_hypothesis(EqualDistributions(), groups)
            assert skovgaard_log_gamma(fit) == pytest.approx(brute_log_gamma(fit), abs=1e-9)

    def test_degenerate_rejected(self):
        summaries = [make_summary(np.eye(2), n=10), make_summary(np.eye(2), n=10)]
        fit = constrained_mle(EqualCovariances(), summaries)
        with pytest.raises(DegenerateNullError):
            skovgaard_log_gamma(fit)

    def test_positive_for_seeded_instances(self):
        rng = np.random.default_rng(47)
        for p in (2, 5, 10):
            y = rng.standard_normal((30, p))
            fit = fit_hypothesis(CompleteIndependence(), y)
            assert skovgaard_log_gamma(fit) > -math.inf


class TestSkovgaardStats:
    def test_unit_gamma_collapses(self):
        assert skovgaard_stats(5.0, log_gamma=0.0) == (5.0, 5.0)

    def test_plugin_values(self):
        w_star, w_star2 = skovgaard_stats(10.0, log_gamma=1.0)
        assert w_star2 == pytest.approx(8.0, rel=1e-14)
        assert w_star == pytest.approx(8.1, rel=1e-14)

    def test_w_star_nonnegative_even_for_large_gamma(self):
        w_star, w_star2 = skovgaard_stats(2.0, log_gamma=50.0)
        assert w_star >= 0.0
        assert w_star2 < 0.0
        # the report refers a negative statistic to the foot of the chi-square
        assert chisq_upper_tail(max(w_star2, 0.0), 4) == 1.0
        assert 0.0 <= chisq_upper_tail(w_star, 4) <= 1.0


class TestBartlett:
    def test_rescale_identity_when_expectation_equals_d(self):
        w_bc, p = bartlett_rescale(7.5, 5, 5.0)
        assert w_bc == 7.5
        assert p == pytest.approx(chisq_upper_tail(7.5, 5), rel=1e-14)

    def test_bootstrap_deterministic(self):
        rng = np.random.default_rng(48)
        y = rng.standard_normal((20, 3))
        fit = fit_hypothesis(CompleteIndependence(), y)
        a = bartlett_bootstrap(fit, reps=60, seed=5)
        b = bartlett_bootstrap(fit, reps=60, seed=5)
        assert a == b

    def test_expectation_inflated_in_high_dimension(self):
        # mean of W exceeds d noticeably at p/n = 0.3
        rng = np.random.default_rng(49)
        y = rng.standard_normal((100, 30))
        fit = fit_hypothesis(ProportionalIdentity(), y)
        e_w_hat = bartlett_bootstrap(fit, reps=120, seed=6)
        w_bc, _ = bartlett_rescale(fit.hypothesis.lrt(fit), fit.d, e_w_hat)
        assert e_w_hat / fit.d > 1.05
        assert w_bc < fit.hypothesis.lrt(fit)

    @pytest.mark.parametrize("reps", [0, -3])
    def test_bootstrap_needs_a_draw(self, reps):
        fit = fit_hypothesis(CompleteIndependence(), np.random.default_rng(48).standard_normal((20, 3)))
        with pytest.raises(ValueError, match="reps must be >= 1"):
            bartlett_bootstrap(fit, reps, seed=5)

    def test_bootstrap_expectation_near_d_when_n_large(self):
        rng = np.random.default_rng(50)
        y = rng.standard_normal((500, 2))
        fit = fit_hypothesis(CompleteIndependence(), y)
        e_w_hat = bartlett_bootstrap(fit, reps=2000, seed=7)
        assert abs(e_w_hat / fit.d - 1.0) < 0.05


class TestClassicalReport:
    def test_unknown_methods_raise(self):
        fit = fit_hypothesis(CompleteIndependence(), np.random.default_rng(52).standard_normal((20, 3)))
        with pytest.raises(ValueError, match="unknown classical methods: LRT, sko3"):
            classical_report(fit, ("lrt", "LRT", "sko3"))

    def test_bc_requires_e_w_hat(self):
        fit = fit_hypothesis(CompleteIndependence(), np.random.default_rng(52).standard_normal((20, 3)))
        with pytest.raises(ValueError, match="e_w_hat"):
            classical_report(fit, ("bc",))

    def test_degenerate_reports_unit_pvalues(self):
        fit = constrained_mle(ProportionalIdentity(), [make_summary(2.0 * np.eye(3))])
        rep = classical_report(fit, ("lrt", "sko1", "sko2"))
        assert fit.degenerate
        assert rep.pvalues == {"lrt": 1.0, "sko1": 1.0, "sko2": 1.0}
        assert rep.statistics == {"lrt": rep.w, "sko1": None, "sko2": None}

    def test_degenerate_by_the_directional_rule(self):
        # equal sample covariances and unequal sizes: the pooled statistic
        # is positive, but the data sit at the null expectation
        y = np.random.default_rng(93).standard_normal((10, 2))
        fit = fit_hypothesis(EqualCovariances(), [y, np.vstack([y, y])])
        assert fit.hypothesis.lrt(fit) > 1e-10
        rep = classical_report(fit, ("lrt", "sko1", "sko2"))
        assert fit.degenerate
        assert rep.pvalues == {"lrt": 1.0, "sko1": 1.0, "sko2": 1.0}

    def test_negative_statistic_reports_unit_pvalues(self):
        # c5 at p = 1, n = 3 with V = 2/3 and mean 0: W = 2 log 1.5 - 1 < 0
        fit = fit_hypothesis(SpecifiedMeanCov(np.zeros(1), np.eye(1)), np.array([[1.0], [0.0], [-1.0]]))
        rep = classical_report(fit, ("lrt", "bc", "sko1", "sko2"), e_w_hat=2.0)
        assert rep.w < 0.0
        assert not fit.degenerate
        assert rep.pvalues == dict.fromkeys(("lrt", "bc", "sko1", "sko2"), 1.0)

    def test_statistics_recomputable_from_stored_fields(self):
        rng = np.random.default_rng(51)
        y = rng.standard_normal((30, 3))
        fit = fit_hypothesis(CompleteIndependence(), y)
        rep = classical_report(fit, ("lrt", "sko1", "sko2"))
        assert rep.w >= -1e-9
        assert rep.statistics["lrt"] == rep.w
        assert rep.statistics["sko1"] == pytest.approx(rep.w * (1 - rep.log_gamma / rep.w) ** 2, rel=1e-12)
        assert rep.statistics["sko2"] == pytest.approx(rep.w - 2 * rep.log_gamma, rel=1e-12)
        for m, stat in rep.statistics.items():
            assert rep.pvalues[m] == chisq_upper_tail(max(stat, 0.0), fit.d)
