"""Sufficient statistics, information determinant, samplers."""

import numpy as np
import pytest

from dirnormal.core import (
    check_estimate_exists,
    summarize,
)
from dirnormal.exceptions import DimensionError, NonFiniteError
from dirnormal.linalg import symmetrize

from _oracles import info_log_det, info_matrix, is_positive_definite, sample_mvn


class TestSummarize:
    def test_hand_computed_two_by_one(self):
        s = summarize([[1.0], [3.0]])
        assert s.ybar[0] == 2.0
        assert s.mle_cov[0, 0] == 1.0

    def test_identical_rows_degenerate(self):
        s = summarize(np.ones((6, 3)))
        np.testing.assert_array_equal(s.mle_cov, np.zeros((3, 3)))
        assert not is_positive_definite(s.mle_cov)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((10, 3))
        s = summarize(y)
        direct = np.zeros((3, 3))
        ybar = y.mean(axis=0)
        for row in y:
            direct += np.outer(row - ybar, row - ybar)
        direct /= 10
        np.testing.assert_allclose(s.mle_cov, direct, rtol=1e-12, atol=1e-14)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((15, 4))
        a = summarize(y)
        b = summarize(y[rng.permutation(15)])
        np.testing.assert_allclose(a.mle_cov, b.mle_cov, atol=1e-13)
        np.testing.assert_allclose(a.ybar, b.ybar, atol=1e-14)

    def test_large_mean_costs_no_digits(self):
        # second moments minus the mean's outer product would leave errors
        # of about 1e12 eps here
        rng = np.random.default_rng(14)
        y = rng.standard_normal((50, 4))
        shifted = summarize(y + 1e6)
        np.testing.assert_allclose(shifted.mle_cov, summarize(y).mle_cov, rtol=1e-8, atol=1e-8)

    def test_relations_between_fields(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((20, 3))
        s = summarize(y)
        assert (s.n, s.p) == y.shape
        np.testing.assert_array_equal(s.ybar, y.mean(axis=0))
        np.testing.assert_allclose(
            s.mle_cov, y.T @ y / s.n - np.outer(s.ybar, s.ybar), rtol=1e-12, atol=1e-14
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            summarize([[1.0, np.nan], [2.0, 3.0]])

    def test_existence_condition(self):
        check_estimate_exists(5, 3)
        with pytest.raises(DimensionError):
            check_estimate_exists(4, 3)


class TestInfoLogDet:
    def test_scalar_case(self):
        # p=1, n=2, identity concentration: (1*4/2) log 2 - log 2 = log 2
        assert info_log_det(np.eye(1), 2) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_diagonal_plugin(self):
        val = info_log_det(np.diag([2.0, 1.0]), 10)
        assert val == pytest.approx(5 * np.log(10) - 2 * np.log(2) - 4 * np.log(2), rel=1e-14)

    def test_matches_assembled_blocks(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((8, 4))
        lam = symmetrize(a.T @ a / 8 + 0.3 * np.eye(4))
        xi = rng.standard_normal(4)
        j = info_matrix(xi, np.linalg.inv(lam), 20)
        sign, logdet = np.linalg.slogdet(j)
        assert sign > 0
        assert info_log_det(lam, 20) == pytest.approx(logdet, rel=1e-8)


class TestSampleMvn:
    def test_deterministic(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        a = sample_mvn([1.0, -1.0], cov, 50, seed=99)
        b = sample_mvn([1.0, -1.0], cov, 50, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_mean_converges(self):
        y = sample_mvn([0.0], np.eye(1), 100_000, seed=1)
        assert abs(y.mean()) < 4 / np.sqrt(100_000)

    def test_covariance_converges(self):
        cov = np.array([[1.0, 0.4, 0.1], [0.4, 1.5, -0.2], [0.1, -0.2, 0.8]])
        y = sample_mvn(np.zeros(3), cov, 100_000, seed=2)
        sample_cov = np.cov(y, rowvar=False)
        assert np.max(np.abs(sample_cov - cov)) < 0.05
