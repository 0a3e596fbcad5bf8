"""SPD primitives: the Cholesky factor and what it gives (log-determinant,
inverse, ``L^-1``), duplication matrix, pencil eigenvalues."""

import numpy as np
import pytest

from dirnormal.exceptions import NotPositiveDefiniteError
from dirnormal.linalg import SpdFactor, eig_pencil, symmetrize

from _oracles import duplication_matrix, naive_det, vech


def random_spd(rng, p, jitter=0.5):
    a = rng.standard_normal((p + 3, p))
    return symmetrize(a.T @ a / (p + 3) + jitter * np.eye(p))


def pencil(a, m):
    """Eigenvalues of the ``(a, m)`` pencil from a fresh factor of ``a``."""
    return eig_pencil(SpdFactor(a).chol_inv, m)


def log_det(m):
    return SpdFactor(m).log_det


class TestLogDetSpd:
    """``SpdFactor.log_det`` and ``SpdFactor.inv``."""

    def test_identity(self):
        assert log_det(np.eye(5)) == 0.0

    def test_diagonal(self):
        assert log_det(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), rel=1e-14)

    def test_matches_cofactor_expansion(self):
        # naive determinant oracle on a random SPD 8x8
        rng = np.random.default_rng(31)
        m = random_spd(rng, 8)
        assert log_det(m) == pytest.approx(np.log(naive_det(m)), rel=1e-10)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(32)
        for p in (1, 3, 6):
            m = random_spd(rng, p)
            inv = SpdFactor(m).inv
            np.testing.assert_allclose(inv, np.linalg.inv(m), rtol=1e-9, atol=1e-12)
            assert np.array_equal(inv, inv.T)
            assert abs(log_det(m) + log_det(inv)) < 1e-9

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdFactor(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestDuplicationMatrix:
    def test_p1(self):
        assert duplication_matrix(1).tolist() == [[1.0]]

    def test_p2_explicit(self):
        # maps (m11, m21, m22) to column-major vec (m11, m21, m21, m22)
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        np.testing.assert_array_equal(duplication_matrix(2), expected)

    def test_vec_vech_identity_p5(self):
        rng = np.random.default_rng(33)
        m = symmetrize(rng.standard_normal((5, 5)))
        dup = duplication_matrix(5)
        np.testing.assert_array_equal(dup @ vech(m), m.flatten(order="F"))


class TestInvCholesky:
    """``SpdFactor.chol`` and ``SpdFactor.chol_inv``."""

    def test_whitens_and_matches_log_det(self):
        rng = np.random.default_rng(39)
        for p in (1, 4, 9):
            a = random_spd(rng, p)
            factor = SpdFactor(a)
            ell_inv = factor.chol_inv
            np.testing.assert_allclose(ell_inv @ a @ ell_inv.T, np.eye(p), atol=1e-12)
            np.testing.assert_allclose(factor.chol @ factor.chol.T, a, atol=1e-12)
            np.testing.assert_allclose(ell_inv, np.linalg.inv(factor.chol), atol=1e-12)
            assert np.all(np.triu(ell_inv, 1) == 0.0)
            assert factor.log_det == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12, abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdFactor(np.diag([1.0, -1.0]))


class TestEigPencil:
    def test_equal_inputs_give_ones(self):
        rng = np.random.default_rng(34)
        m = random_spd(rng, 4)
        np.testing.assert_allclose(pencil(m, m), np.ones(4), atol=1e-12)

    def test_diagonal_case(self):
        nu = pencil(np.eye(2), np.diag([2.0, 0.5]))
        np.testing.assert_allclose(nu, [0.5, 2.0], rtol=1e-14)

    def test_product_equals_determinant_ratio(self):
        rng = np.random.default_rng(35)
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        ratio = np.exp(log_det(b) - log_det(a))
        assert np.prod(pencil(a, b)) == pytest.approx(ratio, rel=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(36)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        c = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        base = pencil(a, b)
        transformed = pencil(symmetrize(c.T @ a @ c), symmetrize(c.T @ b @ c))
        np.testing.assert_allclose(transformed, base, atol=1e-9, rtol=1e-9)

    def test_sorted_ascending_and_positive(self):
        rng = np.random.default_rng(37)
        nu = pencil(random_spd(rng, 5), random_spd(rng, 5))
        assert np.all(nu > 0)
        assert np.all(np.diff(nu) >= 0)

    def test_bordered_pencil_satisfies_determinant_identity(self):
        # the unit corner of [[V + b b', b], [b', 1]] leaves the Schur
        # complement V, so its pencil with diag(A, 1) has
        # sum log mu = log det V - log det A
        rng = np.random.default_rng(38)
        one = np.ones((1, 1))
        for p in (1, 3, 8):
            a, v = random_spd(rng, p), random_spd(rng, p)
            b = rng.standard_normal(p)[:, None]
            diag_a_1 = np.block([[a, np.zeros_like(b)], [np.zeros_like(b.T), one]])
            mu = pencil(diag_a_1, np.block([[v + b @ b.T, b], [b.T, one]]))
            assert np.sum(np.log(mu)) == pytest.approx(log_det(v) - log_det(a), abs=1e-12)


def test_oracles_do_not_use_the_engine_factor():
    # the oracles factor with numpy, so a fault in SpdFactor cannot hide in
    # the checks of what is built on it
    import ast
    from pathlib import Path

    source = (Path(__file__).parent / "_oracles.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.startswith("dirnormal.linalg")}
    for attr in ("a_factor", "cov_factor", "SpdFactor"):
        assert attr not in source
