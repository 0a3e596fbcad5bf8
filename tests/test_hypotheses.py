"""Constrained fits, degrees of freedom, zero-pattern fits, tilted paths."""

import numpy as np
import pytest
from scipy.optimize import minimize

from _oracles import (
    expected_s_psi,
    ips_zero_pattern,
    is_degenerate,
    is_positive_definite,
    path_estimates,
    second_moment,
    vech,
    zero_pattern_kkt_residuals,
)
from dirnormal import hypotheses
from dirnormal.classical import classical_report
from dirnormal.core import SampleSummary, summarize
from dirnormal.directional import directional_pvalue
from dirnormal.exceptions import DimensionError, NoConvergenceError, NonFiniteError, NotPositiveDefiniteError
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
    fit_zero_pattern,
)
from dirnormal.simulation import bartlett_bootstrap


def make_summary(mle_cov, n=30, ybar=None):
    """Sufficient statistics with exactly the given covariance."""
    mle_cov = np.asarray(mle_cov, dtype=float)
    p = mle_cov.shape[0]
    ybar = np.zeros(p) if ybar is None else np.asarray(ybar, dtype=float)
    return SampleSummary(n=n, p=p, ybar=ybar, mle_cov=mle_cov)


class TestDegreesOfFreedom:
    def test_specified_mean_cov_p4(self):
        assert SpecifiedMeanCov(np.zeros(4), np.eye(4)).degrees_of_freedom(4) == 14

    def test_equal_covariances_p3_k3(self):
        assert EqualCovariances().degrees_of_freedom(3, k=3) == 12

    def test_complete_independence_p2(self):
        assert CompleteIndependence().degrees_of_freedom(2) == 1

    def test_proportional_identity(self):
        assert ProportionalIdentity().degrees_of_freedom(5) == 14  # 15 - 1

    def test_equal_distributions(self):
        assert EqualDistributions().degrees_of_freedom(2, k=3) == 10  # p(p+3)(k-1)/2

    def test_block_bookkeeping_identity(self):
        # constrained dof + free block dofs = total covariance dofs
        p = 7
        hyp = BlockIndependence((3, 2, 2))
        d = hyp.degrees_of_freedom(p)
        free = sum(s * (s + 1) // 2 for s in hyp.block_sizes)
        assert d + free == p * (p + 1) // 2

    def test_zero_pattern_counts_pairs(self):
        assert ZeroPattern(((0, 1), (2, 3))).degrees_of_freedom(4) == 2


class TestConstrainedMle:
    def test_proportional_identity_trace_mean(self):
        fit = constrained_mle(ProportionalIdentity(), [make_summary(np.diag([2.0, 4.0]))])
        np.testing.assert_allclose(fit.lambda0_inv, 3.0 * np.eye(2), rtol=1e-14)

    def test_complete_independence_diagonal(self):
        fit = constrained_mle(CompleteIndependence(), [make_summary([[1.0, 0.5], [0.5, 2.0]])])
        np.testing.assert_array_equal(fit.lambda0_inv, np.diag([1.0, 2.0]))

    def test_equal_distributions_matches_pooled_loop(self):
        rng = np.random.default_rng(3)
        groups = [rng.standard_normal((12, 3)), rng.standard_normal((17, 3)) + 0.4]
        fit = fit_hypothesis(EqualDistributions(), groups)
        stacked = np.vstack(groups)
        ybar = stacked.mean(axis=0)
        pooled = np.zeros((3, 3))
        for row in stacked:
            pooled += np.outer(row - ybar, row - ybar)
        pooled /= len(stacked)
        np.testing.assert_allclose(fit.lambda0_inv, pooled, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fit.mu0[0], ybar, atol=1e-14)

    def test_trace_identity_one_sample_cases(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((25, 4))
        for hyp in (
            ProportionalIdentity(),
            BlockIndependence((2, 2)),
            CompleteIndependence(),
            ZeroPattern(((0, 3), (1, 2))),
        ):
            fit = fit_hypothesis(hyp, y)
            assert sum(fit.pencil_eigs[0]) == pytest.approx(4.0, abs=1e-8)

    def test_equal_covariances_weighted_trace_identity(self):
        # The shared fit satisfies the n-weighted trace identity; the
        # unweighted per-group version is false in general (see below).
        rng = np.random.default_rng(5)
        groups = [rng.standard_normal((20, 3)), 2.0 * rng.standard_normal((30, 3))]
        fit = fit_hypothesis(EqualCovariances(), groups)
        weighted = sum(
            s.n * np.sum(nu) for s, nu in zip(fit.summaries, fit.pencil_eigs)
        ) / fit.n_total
        assert weighted == pytest.approx(3.0, abs=1e-8)

    def test_equal_covariances_per_group_trace_not_p(self):
        # 1-d counterexample: pooled 1.0 against group values 0.4 and 1.6.
        g1 = np.array([[0.0], [2.0], [1.0], [1.0], [1.0]])  # ssq 2 -> 0.4
        g2 = np.array([[0.0], [4.0], [2.0], [2.0], [2.0]])  # ssq 8 -> 1.6
        fit = fit_hypothesis(EqualCovariances(), [g1, g2])
        sums = [float(np.sum(nu)) for nu in fit.pencil_eigs]
        assert sums[0] != pytest.approx(1.0, abs=0.1)
        assert (5 * sums[0] + 5 * sums[1]) / 10 == pytest.approx(1.0, abs=1e-12)

    def test_blocks_of_size_one_match_complete_independence(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((20, 3))
        a = fit_hypothesis(BlockIndependence((1, 1, 1)), y)
        b = fit_hypothesis(CompleteIndependence(), y)
        np.testing.assert_allclose(a.lambda0_inv, b.lambda0_inv, atol=1e-14)
        assert a.d == b.d

    def test_group_count_validation(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((10, 2))
        with pytest.raises(DimensionError):
            fit_hypothesis(EqualCovariances(), [y])
        with pytest.raises(DimensionError):
            fit_hypothesis(ProportionalIdentity(), np.ones((3, 2)))  # n < p + 2

    @pytest.mark.parametrize("hyp, k", [(ProportionalIdentity(), 1), (SpecifiedMeanCov(np.zeros(5), np.eye(5)), 1),
                                        (EqualCovariances(), 2)])
    def test_summary_with_n_below_p_plus_two_rejected(self, hyp, k):
        # n = p + 1 gives an invertible sample covariance, but no maximum
        # likelihood estimate of the tilted density
        rng = np.random.default_rng(9)
        summaries = [summarize(rng.standard_normal((n, 5))) for n in (7, 6)[-k:]]
        with pytest.raises(DimensionError, match=r"n >= p \+ 2"):
            constrained_mle(hyp, summaries)

    @pytest.mark.parametrize("hyp", [CompleteIndependence(), ProportionalIdentity()])
    def test_collinear_sample_rejected(self, hyp):
        # a duplicated column, or a combination of two, leaves the sample
        # covariance singular; its Cholesky factorization still succeeds for
        # some of these seeds (0, 1, 6 and 9)
        for seed in range(10):
            y = np.random.default_rng(seed).standard_normal((12, 5))
            y[:, 3] = y[:, 0]
            with pytest.raises(NotPositiveDefiniteError):
                fit_hypothesis(hyp, y)
            y[:, 3] = 2.5 * y[:, 0] - y[:, 1]
            with pytest.raises(NotPositiveDefiniteError):
                fit_hypothesis(hyp, y)

    def test_pencil_eigenvalues_computed_on_first_use(self, monkeypatch):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((25, 4))
        groups = [rng.standard_normal((n, 4)) for n in (12, 15, 20)]
        calls = []
        original = hypotheses.eig_pencil
        monkeypatch.setattr(hypotheses, "eig_pencil", lambda a, v: calls.append(1) or original(a, v))
        for hyp, data in (
            (ProportionalIdentity(), y),
            (BlockIndependence((2, 2)), y),
            (EqualDistributions(), groups),
            (EqualCovariances(), groups),
            (SpecifiedMeanCov(np.zeros(4), np.eye(4)), y),
            (CompleteIndependence(), y),
            (ZeroPattern(((0, 3), (1, 2))), y),
        ):
            fit = fit_hypothesis(hyp, data)
            assert not calls  # the fit itself runs no eigensolver
            mu, slope = fit.spectrum
            assert len(calls) == fit.k
            assert fit.spectrum[0] is mu and len(calls) == fit.k  # computed once
            if hyp.free_mean:
                assert mu.shape == (fit.k, fit.p)
                for s, nu, row in zip(fit.summaries, fit.pencil_eigs, mu):
                    np.testing.assert_array_equal(nu, original(fit.a_factor.chol_inv, s.mle_cov))
                    np.testing.assert_array_equal(row, nu)
                assert len(calls) == fit.k  # pencil_eigs shares the spectrum's solves
                assert slope == 0.0 and type(slope) is float  # exactly, by the score equation
            else:
                assert mu.shape == (fit.k, fit.p + 1)  # the bordered pencil
                assert fit.pencil_eigs is None
                # c3 estimates the scale too, and its slope, taken from the
                # eigenvalues, is 0 up to rounding; c5's is not
                if hyp.grouped:
                    assert abs(slope) <= 100 * fit.n_total * fit.p * np.finfo(float).eps
                else:
                    assert slope != 0.0
                # a directional p-value of a fresh fit reaches the same k solves
                calls.clear()
                directional_pvalue(fit_hypothesis(hyp, data))
                assert len(calls) == fit.k
            calls.clear()


class TestZeroPattern:
    def test_no_zeros_returns_input(self):
        rng = np.random.default_rng(8)
        v = summarize(rng.standard_normal((20, 3))).mle_cov
        np.testing.assert_array_equal(fit_zero_pattern(v, ()), v)

    def test_full_independence_matches_diagonal(self):
        rng = np.random.default_rng(9)
        v = summarize(rng.standard_normal((20, 3))).mle_cov
        pairs = ((0, 1), (0, 2), (1, 2))
        np.testing.assert_allclose(fit_zero_pattern(v, pairs), np.diag(np.diag(v)), atol=1e-12)

    def test_single_zero_matches_numeric_optimizer(self):
        rng = np.random.default_rng(10)
        v = summarize(rng.standard_normal((30, 3))).mle_cov
        pairs = ((0, 2),)
        fitted = fit_zero_pattern(v, pairs)

        # restricted-likelihood oracle: maximize log det(K) - tr(K V) over
        # concentrations K with K[0, 2] = 0
        idx = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]

        def unpack(theta):
            k = np.zeros((3, 3))
            for val, (i, j) in zip(theta, idx):
                k[i, j] = k[j, i] = val
            return k

        def neg(theta):
            k = unpack(theta)
            sign, logdet = np.linalg.slogdet(k)
            if sign <= 0:
                return 1e10
            return -(logdet - float(np.sum(k * v)))

        theta0 = np.array([1 / v[0, 0], 1 / v[1, 1], 1 / v[2, 2], 0.0, 0.0])
        res = minimize(neg, theta0, method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-13, "maxiter": 50000})
        oracle_cov = np.linalg.inv(unpack(res.x))
        np.testing.assert_allclose(fitted, oracle_cov, atol=1e-8)

    def test_zero_entries_exact_and_free_entries_match(self):
        rng = np.random.default_rng(11)
        v = summarize(rng.standard_normal((40, 5))).mle_cov
        pairs = ((0, 1), (2, 4))
        fitted = fit_zero_pattern(v, pairs)
        conc = np.linalg.inv(fitted)
        for i, j in pairs:
            assert abs(conc[i, j]) < 1e-9
        free = [(i, j) for i in range(5) for j in range(i, 5) if (i, j) not in pairs]
        for i, j in free:
            assert fitted[i, j] == pytest.approx(v[i, j], abs=1e-9)
        # trace identity comes along for free
        assert np.sum(conc * v) == pytest.approx(5.0, abs=1e-10)

    def test_not_pd_input_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            fit_zero_pattern(np.array([[1.0, 2.0], [2.0, 1.0]]), ((0, 1),))

    # Unknowns: p plus the free pairs on the primal branch, the zero pairs on
    # the dual one.  The banded p=30 pattern has 87 against 378, the p=40 one
    # 817 against 3, and 18 zeros at p=8 make a tie (18 against 18), which
    # the primal branch takes.
    PATTERNS = {
        "primal": (30, tuple((i, j) for i in range(30) for j in range(i + 3, 30))),
        "dual": (40, ((0, 5), (3, 17), (20, 39))),
        "tie": (8, ((0, 1), (0, 3), (0, 5), (0, 7), (1, 2), (1, 4), (1, 6), (2, 3), (2, 5),
                    (2, 7), (3, 4), (3, 6), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7), (1, 7))),
    }

    @pytest.mark.parametrize("branch", sorted(PATTERNS))
    def test_matches_proportional_scaling_oracle(self, branch):
        p, pairs = self.PATTERNS[branch]
        v = summarize(np.random.default_rng(12).standard_normal((200, p))).mle_cov
        np.testing.assert_allclose(
            fit_zero_pattern(v, pairs), ips_zero_pattern(v, pairs, tol=1e-11), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("branch", sorted(PATTERNS))
    def test_optimality_conditions(self, branch):
        p, pairs = self.PATTERNS[branch]
        # a scaled and correlated covariance: the fit works on the correlation scale
        rng = np.random.default_rng(14)
        y = rng.standard_normal((p + 20, p)) @ (np.eye(p) + 0.3 * rng.standard_normal((p, p)))
        v = summarize(y * np.geomspace(0.01, 100.0, p)).mle_cov
        fitted = fit_zero_pattern(v, pairs)
        assert is_positive_definite(fitted)
        assert max(zero_pattern_kkt_residuals(v, pairs, fitted)) <= 1e-10

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(hypotheses, "_MAX_NEWTON_STEPS", 1)
        p, pairs = self.PATTERNS["primal"]
        v = summarize(np.random.default_rng(12).standard_normal((200, p))).mle_cov
        with pytest.raises(NoConvergenceError):
            fit_zero_pattern(v, pairs)


class TestExpectedSPsi:
    def test_degenerate_when_constrained_equals_unconstrained(self):
        fit = constrained_mle(ProportionalIdentity(), [make_summary(2.0 * np.eye(3))])
        shift = expected_s_psi(fit)
        assert shift.max_abs() == 0.0
        assert is_degenerate(fit)

    def test_standardized_at_null_is_zero(self):
        # rows chosen so the mean is zero and the second moment exactly I
        y = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) * np.sqrt(2)
        s = summarize(y)
        np.testing.assert_allclose(second_moment(s), np.eye(2), atol=1e-15)
        fit = constrained_mle(SpecifiedMeanCov(np.zeros(2), np.eye(2)), [s])
        assert expected_s_psi(fit).max_abs() <= 1e-15

    def test_equal_covariances_blocks_recomputed(self):
        rng = np.random.default_rng(13)
        groups = [rng.standard_normal((15, 2)), rng.standard_normal((25, 2)) * 1.5]
        fit = fit_hypothesis(EqualCovariances(), groups)
        shift = expected_s_psi(fit)
        for s, mean_b, vech_b in zip(fit.summaries, shift.mean_blocks, shift.vech_blocks):
            np.testing.assert_array_equal(mean_b, np.zeros(2))
            np.testing.assert_allclose(
                vech_b, -0.5 * s.n * vech(fit.lambda0_inv - s.mle_cov), atol=1e-12
            )


def _exact_null_data(p: int, scale: float) -> np.ndarray:
    """Rows ``+-scale sqrt(p) e_i``, repeated until there are ``p + 2``: mean
    0 and covariance ``scale**2`` times the identity, up to rounding."""
    y = np.vstack([np.eye(p), -np.eye(p)]) * np.sqrt(p) * scale
    while y.shape[0] < p + 2:
        y = np.vstack([y, y])
    return y


class TestDegenerate:
    """``ConstrainedFit.degenerate``, the one degeneracy rule, against the
    sufficient-shift rule of the oracles."""

    @staticmethod
    def _units(fit) -> float:
        return fit.plain_w / (fit.n_total * fit.p * np.finfo(float).eps)

    def test_exactly_degenerate_fits_agree_with_the_shift_rule(self):
        # k copies of one sample, on unit scales, on column scales from 1e-3
        # to 1e3 and with means up to 5e3 standard deviations from 0; and
        # one-sample data whose covariance meets each null exactly
        rng = np.random.default_rng(120)
        worst = 0.0
        for p in (1, 2, 5, 30, 90):
            scales = np.logspace(-3, 3, p)
            for n in (p + 2, 3 * p + 5):
                for scaled, shifted in ((False, False), (True, False), (False, True), (True, True)):
                    y = rng.standard_normal((n, p))
                    y = y * scales if scaled else y
                    y = y + rng.uniform(-5e3, 5e3, p) * (scales if scaled else 1.0) if shifted else y
                    for hyp, k in ((EqualDistributions(), 2), (EqualDistributions(), 3),
                                   (EqualCovariances(), 2), (EqualCovariances(), 3)):
                        fit = fit_hypothesis(hyp, [y] * k)
                        assert fit.degenerate and is_degenerate(fit), (hyp.tag, p, n, scaled, shifted)
                        worst = max(worst, abs(self._units(fit)))
            for scale in (1e-3, 1.0, 1e3):
                y = _exact_null_data(p, scale)
                hyps = [CompleteIndependence(), SpecifiedMeanCov(np.zeros(p), np.eye(p) / scale**2)]
                if p > 1:
                    hyps += [ProportionalIdentity(), BlockIndependence((1, p - 1)), ZeroPattern(((0, p - 1),))]
                for hyp in hyps:
                    fit = fit_hypothesis(hyp, y)
                    assert fit.degenerate and is_degenerate(fit), (hyp.tag, p, scale)
                    worst = max(worst, abs(self._units(fit)))
        # the measured rounding (143 units, at p = 90, n = p + 2, scaled and
        # shifted) against the allowance of the rule
        assert worst <= hypotheses.DEGENERATE_ROUNDING / 5

    def test_fits_off_the_null_expectation_are_not_degenerate(self):
        rng = np.random.default_rng(121)
        for p in (1, 5, 30):
            y, z = rng.standard_normal((p + 10, p)), rng.standard_normal((p + 12, p))
            for hyp in (EqualDistributions(), EqualCovariances()):
                fit = fit_hypothesis(hyp, [y, z])
                assert not fit.degenerate and not is_degenerate(fit)
            fit = fit_hypothesis(SpecifiedMeanCov(np.zeros(p), np.eye(p)), y)
            assert not fit.degenerate and not is_degenerate(fit)

    def test_no_null_draw_is_flagged(self):
        # 2,100 draws at n = p + 2, where the statistic is smallest
        rng = np.random.default_rng(122)
        draws, smallest = 0, np.inf
        for tag, low in (("c1", 2), ("c2", 2), ("c3", 1), ("c4", 1), ("c5", 1), ("c6", 2), ("pattern", 2)):
            for i in range(300):
                p = low + i % 4
                n = p + 2
                if tag in ("c3", "c4"):
                    hyp = EqualDistributions() if tag == "c3" else EqualCovariances()
                    data = [rng.standard_normal((n, p)) for _ in range(2)]
                else:
                    hyp = {"c1": ProportionalIdentity, "c2": lambda: BlockIndependence((1, p - 1)),
                           "c5": lambda: SpecifiedMeanCov(np.zeros(p), np.eye(p)), "c6": CompleteIndependence,
                           "pattern": lambda: ZeroPattern(((0, p - 1),))}[tag]()
                    data = rng.standard_normal((n, p))
                fit = fit_hypothesis(hyp, data)
                assert not fit.degenerate, (tag, p, i)
                smallest = min(smallest, self._units(fit))
                draws += 1
        assert draws >= 2000
        assert smallest > 100 * hypotheses.DEGENERATE_ROUNDING

    def test_equal_covariances_degenerate_under_large_means(self):
        # equal covariances, the third group the first stacked twice: from
        # second moments minus the mean's outer product, plain_w read 4,605
        # units of n p eps at this seed
        rng = np.random.default_rng(3)
        y = rng.standard_normal((32, 30)) + rng.uniform(-5e3, 5e3, 30)
        fit = fit_hypothesis(EqualCovariances(), [y, y, np.vstack([y, y])])
        assert fit.degenerate and is_degenerate(fit)
        assert abs(self._units(fit)) <= hypotheses.DEGENERATE_ROUNDING / 10

    def test_negative_c5_statistic_is_not_degenerate(self):
        # p = 1, n = 3: V = 2/3 and mean 0 give W = -2 log(2/3) + 2 - 3 < 0
        fit = fit_hypothesis(SpecifiedMeanCov(np.zeros(1), np.eye(1)), np.array([[1.0], [0.0], [-1.0]]))
        assert fit.hypothesis.lrt(fit) == pytest.approx(2.0 * np.log(1.5) - 1.0, rel=1e-14)
        assert fit.plain_w > 0.0
        assert not fit.degenerate


class TestPivotCheck:
    """The singularity check of ``constrained_mle`` reads each summary's
    cached Cholesky factor: for ``V = [[1, r], [r, 1]]`` the second pivot
    ratio is ``1 - r**2``."""

    @staticmethod
    def _summary(ratio):
        r = np.sqrt(1.0 - ratio)
        return make_summary(np.array([[1.0, r], [r, 1.0]]), n=30)

    @pytest.mark.parametrize("hyp", [ProportionalIdentity(), CompleteIndependence()])
    def test_accepted_just_above_the_threshold(self, hyp):
        from dirnormal.directional import directional_pvalue

        s = self._summary(2e-10)
        fit = constrained_mle(hyp, [s])
        assert "cov_factor" in s.__dict__
        assert s.cov_factor.chol[1, 1] ** 2 == pytest.approx(2e-10, rel=1e-5)
        p, _ = directional_pvalue(fit)
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize("hyp", [ProportionalIdentity(), CompleteIndependence()])
    def test_rejected_below_the_threshold(self, hyp):
        with pytest.raises(NotPositiveDefiniteError,
                           match="sample covariance is singular: the unconstrained MLE does not exist"):
            constrained_mle(hyp, [self._summary(5e-11)])


class TestFactorizationCount:
    """Each covariance is factored once: count the Cholesky factorizations."""

    DRAW_CASES = [
        (ProportionalIdentity(), 1), (BlockIndependence((2, 3)), 1), (EqualDistributions(), 3),
        (EqualCovariances(), 3), (SpecifiedMeanCov(np.zeros(5), np.eye(5)), 1), (CompleteIndependence(), 1),
    ]

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or original(m))
        return calls

    @pytest.mark.parametrize("tag, expected", [("c1", 2), ("c3", 4), ("c4", 4), ("c5", 1)])
    def test_fit_report_and_pvalue(self, monkeypatch, tag, expected):
        # one per group covariance and one for A; c5 inverts its lambda0
        # and factors A when the hypothesis is built
        from dirnormal.classical import classical_report
        from dirnormal.directional import directional_pvalue

        rng = np.random.default_rng(123)
        p, n = 10, 40
        hyp = {"c1": ProportionalIdentity(), "c3": EqualDistributions(), "c4": EqualCovariances(),
               "c5": SpecifiedMeanCov(np.zeros(p), np.eye(p))}[tag]
        data = [rng.standard_normal((n, p)) for _ in range(3)] if hyp.grouped else rng.standard_normal((n, p))
        calls = self._counting(monkeypatch)
        fit = fit_hypothesis(hyp, data)
        classical_report(fit, ("lrt", "sko1", "sko2"))
        directional_pvalue(fit)
        assert len(calls) == expected

    def test_zero_pattern_fit_checks_the_sample_covariance_once(self, monkeypatch):
        # the sample covariance and A once each, plus one inverse per damped
        # Newton step: fit_zero_pattern's own check is for direct callers.
        # hypotheses builds the factors of A and of each Newton iterate.
        from dirnormal.classical import classical_report
        from dirnormal.directional import directional_pvalue

        y = np.random.default_rng(123).standard_normal((20, 10))
        calls = self._counting(monkeypatch)
        built = []
        spd_factor = hypotheses.SpdFactor
        monkeypatch.setattr(hypotheses, "SpdFactor", lambda m: built.append(1) or spd_factor(m))
        fit = fit_hypothesis(ZeroPattern(((0, 1), (2, 3))), y)
        classical_report(fit, ("lrt", "sko1", "sko2"))
        directional_pvalue(fit)
        steps = len(built) - 1
        assert len(calls) == 2 + steps == 8

    @pytest.mark.parametrize("hyp, k", DRAW_CASES)
    def test_bartlett_draw(self, monkeypatch, hyp, k):
        # a calibration draw refits its summaries and reads only W; c5's A
        # is factored once per hypothesis
        rng = np.random.default_rng(124)
        summaries = [summarize(rng.standard_normal((20, 5))) for _ in range(k)]
        calls = self._counting(monkeypatch)
        hyp.lrt(constrained_mle(hyp, summaries))
        assert len(calls) == k + (not isinstance(hyp, SpecifiedMeanCov))

    @pytest.mark.parametrize("hyp, k", DRAW_CASES)
    def test_bartlett_bootstrap(self, monkeypatch, hyp, k):
        # the draws read the fit's factor of A, so the bootstrap adds only
        # the factorizations of its draws
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        rng = np.random.default_rng(125)
        fit = constrained_mle(hyp, [summarize(rng.standard_normal((20, 5))) for _ in range(k)])
        reps = 7
        calls = self._counting(monkeypatch)
        bartlett_bootstrap(fit, reps, seed=3)
        assert len(calls) == reps * (k + (not isinstance(hyp, SpecifiedMeanCov)))


class TestPathEstimates:
    def _fits(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((20, 3))
        groups = [rng.standard_normal((15, 3)), rng.standard_normal((18, 3)) + 0.2]
        return [
            fit_hypothesis(ProportionalIdentity(), y),
            fit_hypothesis(SpecifiedMeanCov(np.zeros(3), np.eye(3)), y),
            fit_hypothesis(EqualCovariances(), groups),
            fit_hypothesis(EqualDistributions(), groups),
        ]

    def test_endpoints(self):
        for fit in self._fits():
            at1 = path_estimates(fit, 1.0)
            for m, s in zip(at1.lambda_t_inv, fit.summaries):
                np.testing.assert_allclose(m, s.mle_cov, atol=1e-12)
            for mu, s in zip(at1.mu_t, fit.summaries):
                np.testing.assert_allclose(mu, s.ybar, atol=1e-12)
            at0 = path_estimates(fit, 0.0)
            for m in at0.lambda_t_inv:
                np.testing.assert_allclose(m, fit.lambda0_inv, atol=1e-12)
            for mu, mu0 in zip(at0.mu_t, fit.mu0):
                np.testing.assert_allclose(mu, mu0, atol=1e-12)

    def test_convex_range_is_positive_definite(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((20, 4))
        fit = fit_hypothesis(BlockIndependence((2, 2)), y)
        for t in rng.uniform(0, 1, size=100):
            for m in path_estimates(fit, t).lambda_t_inv:
                assert is_positive_definite(m)

    def test_specified_case_midpoint_maximizes_tilted_loglik(self):
        # generic-optimizer oracle for the tilted fit at t = 0.5
        rng = np.random.default_rng(16)
        y = rng.standard_normal((14, 2)) * 1.2 + 0.3
        fit = fit_hypothesis(SpecifiedMeanCov(np.zeros(2), np.eye(2)), y)
        s = fit.summaries[0]
        t = 0.5
        target = second_moment(s) * t + (1 - t) * np.eye(2)

        def tilted_neg(theta):
            xi = theta[:2]
            ell = np.array([[np.exp(theta[2]), 0.0], [theta[4], np.exp(theta[3])]])
            lam = ell @ ell.T
            val = (
                s.n * t * xi @ s.ybar
                - 0.5 * s.n * np.sum(lam * target)
                + 0.5 * s.n * np.linalg.slogdet(lam)[1]
                - 0.5 * s.n * xi @ np.linalg.solve(lam, xi)
            )
            return -val

        res = minimize(tilted_neg, np.zeros(5), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 50000})
        ell = np.array([[np.exp(res.x[2]), 0.0], [res.x[4], np.exp(res.x[3])]])
        lam_opt = ell @ ell.T
        point = path_estimates(fit, t)
        np.testing.assert_allclose(np.linalg.inv(lam_opt), point.lambda_t_inv[0], atol=1e-6)
        mu_opt = np.linalg.solve(lam_opt, res.x[:2])
        np.testing.assert_allclose(mu_opt, point.mu_t[0], atol=1e-6)

    def test_outside_range_raises(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((20, 3))
        fit = fit_hypothesis(ProportionalIdentity(), y)
        nu_min = fit.pencil_eigs[0][0]
        beyond = 1.0 / (1.0 - nu_min) * 1.01
        with pytest.raises(NotPositiveDefiniteError):
            path_estimates(fit, beyond)


class TestSpecifiedScale:
    """The fully specified null is fitted on the data as given: every
    statistic equals that of the data standardized to ``(0, I)``."""

    @staticmethod
    def _null(rng, p):
        # column scales from e^-3 to e^3, correlated, and a mean up to 50
        # standard deviations from 0
        scales = np.exp(rng.uniform(-3.0, 3.0, p))
        root = np.eye(p) + 0.3 * rng.standard_normal((p, p)) / np.sqrt(p)
        cov0 = scales[:, None] * (root @ root.T) * scales
        return rng.uniform(-50.0, 50.0, p) * scales, np.linalg.inv(cov0), cov0

    @staticmethod
    def _statistics(fit):
        report = classical_report(fit, ("lrt", "sko1", "sko2"))
        stats = dict(report.pvalues, w=report.w, log_gamma=report.log_gamma)
        stats["dt"], _ = directional_pvalue(fit)
        return stats

    @pytest.mark.parametrize("p", [1, 5, 30])
    def test_raw_data_match_data_standardized_by_the_test(self, monkeypatch, p):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        rng = np.random.default_rng(200 + p)
        # null samples, and one off the null in mean and scale
        for n, shift, spread in ((p + 2, 0.0, 1.0), (2 * p + 10, 0.0, 1.0), (2 * p + 10, 0.3, 1.2)):
            mu0, lambda0, cov0 = self._null(rng, p)
            ell0 = np.linalg.cholesky(cov0)
            y = mu0 + shift * np.sqrt(np.diag(cov0)) + spread * rng.standard_normal((n, p)) @ ell0.T
            raw = fit_hypothesis(SpecifiedMeanCov(mu0, lambda0), y)
            std = fit_hypothesis(SpecifiedMeanCov(np.zeros(p), np.eye(p)),
                                 (y - mu0) @ np.linalg.cholesky(lambda0))
            assert raw.degenerate == std.degenerate
            got, want = self._statistics(raw), self._statistics(std)
            for method in ("dt", "lrt", "sko1", "sko2"):
                assert got[method] == pytest.approx(want[method], rel=0, abs=1e-10), (method, n, shift)
            for stat in ("w", "log_gamma"):
                assert got[stat] == pytest.approx(want[stat], rel=1e-10), (stat, n, shift)
            e_raw, e_std = bartlett_bootstrap(raw, 20, seed=7), bartlett_bootstrap(std, 20, seed=7)
            assert e_raw == pytest.approx(e_std, rel=1e-12, abs=0)

    def test_collinear_samples_rejected_at_any_column_scale(self):
        # one column an exact combination of 2 to 9 others, the columns on
        # scales from 1e-2 to 1e2: the pivot test sees the raw scales
        rng = np.random.default_rng(210)
        for _ in range(200):
            p = int(rng.integers(10, 21))
            n = p + int(rng.integers(2, 21))
            scales = 10.0 ** rng.uniform(-2.0, 2.0, p)
            y = rng.standard_normal((n, p)) * scales
            j, *others = rng.permutation(p)[: 1 + int(rng.integers(2, 10))]
            y[:, j] = y[:, others] @ (rng.standard_normal(len(others)) * scales[j] / scales[others])
            hyp = SpecifiedMeanCov(rng.standard_normal(p) * scales, np.diag(scales ** -2.0))
            with pytest.raises(NotPositiveDefiniteError):
                fit_hypothesis(hyp, y)

    def test_dimension_mismatch_rejected(self):
        y = np.random.default_rng(211).standard_normal((10, 3))
        with pytest.raises(DimensionError):
            fit_hypothesis(SpecifiedMeanCov(np.zeros(2), np.eye(2)), y)

    def test_lambda0_not_positive_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpecifiedMeanCov(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("where", ["mu0", "lambda0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, where, value):
        # a NaN passes the Cholesky factorization, so it is checked itself
        mu0, lambda0 = np.zeros(3), np.eye(3)
        if where == "mu0":
            mu0[1] = value
        else:
            lambda0[1, 1] = value
        with pytest.raises(NonFiniteError, match=where):
            SpecifiedMeanCov(mu0, lambda0)
