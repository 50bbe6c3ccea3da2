"""Unit and property tests for matrices over Z_q."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.matrix import ZqMatrix, inner_product
from repro.crypto.params import CURVE_ORDER
from repro.errors import MatrixError

Q_SMALL = 97


def _random_matrix(n, q, seed=0):
    return ZqMatrix.random(n, q, random.Random(seed))


class TestConstruction:
    def test_rejects_ragged(self):
        with pytest.raises(MatrixError):
            ZqMatrix([[1, 2], [3]], Q_SMALL)

    def test_rejects_empty(self):
        with pytest.raises(MatrixError):
            ZqMatrix([], Q_SMALL)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(MatrixError):
            ZqMatrix([[1]], 1)

    def test_reduces_entries(self):
        m = ZqMatrix([[Q_SMALL + 3, -1]], Q_SMALL)
        assert m.row(0) == (3, Q_SMALL - 1)

    def test_identity(self):
        eye = ZqMatrix.identity(3, Q_SMALL)
        assert eye.det() == 1
        assert eye.inverse() == eye


class TestDeterminantAndInverse:
    def test_known_det(self):
        m = ZqMatrix([[1, 2], [3, 4]], Q_SMALL)
        assert m.det() == (1 * 4 - 2 * 3) % Q_SMALL

    def test_singular(self):
        m = ZqMatrix([[1, 2], [2, 4]], Q_SMALL)
        assert m.det() == 0
        with pytest.raises(MatrixError):
            m.inverse()

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        m = ZqMatrix.random_invertible(4, Q_SMALL, rng)
        assert m * m.inverse() == ZqMatrix.identity(4, Q_SMALL)
        assert m.inverse() * m == ZqMatrix.identity(4, Q_SMALL)

    def test_det_multiplicative(self):
        rng = random.Random(4)
        a = ZqMatrix.random(3, Q_SMALL, rng)
        b = ZqMatrix.random(3, Q_SMALL, rng)
        assert (a * b).det() == a.det() * b.det() % Q_SMALL

    def test_large_modulus(self):
        rng = random.Random(5)
        m = ZqMatrix.random_invertible(5, CURVE_ORDER, rng)
        assert m * m.inverse() == ZqMatrix.identity(5, CURVE_ORDER)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_det_of_transpose(self, n, seed):
        m = _random_matrix(n, Q_SMALL, seed)
        assert m.det() == m.transpose().det()


class TestDual:
    """The identity that makes the IPE correct: B (B*)^T = det(B) I."""

    def test_dual_identity_small(self):
        rng = random.Random(6)
        b = ZqMatrix.random_invertible(4, Q_SMALL, rng)
        b_star = b.dual()
        product = b * b_star.transpose()
        expected = ZqMatrix.identity(4, Q_SMALL).scale(b.det())
        assert product == expected

    def test_dual_identity_curve_order(self):
        rng = random.Random(7)
        b = ZqMatrix.random_invertible(6, CURVE_ORDER, rng)
        product = b * b.dual().transpose()
        assert product == ZqMatrix.identity(6, CURVE_ORDER).scale(b.det())

    def test_dual_of_singular_raises(self):
        m = ZqMatrix([[1, 1], [1, 1]], Q_SMALL)
        with pytest.raises(MatrixError):
            m.dual()

    def test_vectors_through_dual(self):
        """<vB, wB*> == det(B) <v, w> — the decryption identity."""
        q = CURVE_ORDER
        rng = random.Random(8)
        n = 5
        b = ZqMatrix.random_invertible(n, q, rng)
        b_star = b.dual()
        v = [rng.randrange(q) for _ in range(n)]
        w = [rng.randrange(q) for _ in range(n)]
        lhs = inner_product(b.vec_mat(v), b_star.vec_mat(w), q)
        rhs = b.det() * inner_product(v, w, q) % q
        assert lhs == rhs


class TestProducts:
    def test_vec_mat_matches_mat_mul(self):
        m = ZqMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], Q_SMALL)
        v = [2, 0, 5]
        expected = (ZqMatrix([v], Q_SMALL) * m).row(0)
        assert tuple(m.vec_mat(v)) == expected

    def test_shape_mismatch(self):
        m = ZqMatrix([[1, 2], [3, 4]], Q_SMALL)
        with pytest.raises(MatrixError):
            m.vec_mat([1, 2, 3])
        with pytest.raises(MatrixError):
            _ = m * ZqMatrix([[1, 2, 3]], Q_SMALL)

    def test_modulus_mismatch(self):
        a = ZqMatrix([[1]], 5)
        b = ZqMatrix([[1]], 7)
        with pytest.raises(MatrixError):
            _ = a * b

    def test_inner_product_length_mismatch(self):
        with pytest.raises(MatrixError):
            inner_product([1], [1, 2], Q_SMALL)

    def test_inner_product_value(self):
        assert inner_product([1, 2, 3], [4, 5, 6], 100) == 32


class TestRandomInvertible:
    def test_always_invertible(self):
        rng = random.Random(10)
        for _ in range(5):
            m = ZqMatrix.random_invertible(3, Q_SMALL, rng)
            assert m.det() != 0

    def test_deterministic_given_seed(self):
        a = ZqMatrix.random(3, Q_SMALL, random.Random(11))
        b = ZqMatrix.random(3, Q_SMALL, random.Random(11))
        assert a == b
