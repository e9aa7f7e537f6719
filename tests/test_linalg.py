"""Tests for the dense complex matrix primitives."""

import numpy as np
import pytest

from qgvertex import linalg
from qgvertex.errors import ShapeMismatch, SingularMatrix


class TestRank:
    def test_identity(self):
        assert linalg.rank(np.eye(2)) == 2

    def test_zero_matrix(self):
        assert linalg.rank(np.zeros((3, 3))) == 0

    def test_repeated_rows(self):
        assert linalg.rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1

    def test_zero_dimensional(self):
        assert linalg.rank(np.zeros((0, 0))) == 0
        assert linalg.rank(np.zeros((0, 4))) == 0
        assert linalg.rank(np.zeros((4, 0))) == 0

    def test_rectangular(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        assert linalg.rank(m) == 1

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            linalg.rank(np.eye(2), tol=0.0)

    def test_invariant_under_permutation_and_conditioning(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            m[3] = m[0] + m[1]  # force rank 3
            r = linalg.rank(m)
            assert r == 3
            perm = rng.permutation(6)
            assert linalg.rank(m[:, perm]) == r
            # well-conditioned invertible factor: I + small perturbation
            g = np.eye(4) + 0.1 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert linalg.rank(g @ m) == r


class TestInverse:
    def test_identity(self):
        assert np.allclose(linalg.inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        inv = linalg.inverse(np.diag([2.0, 1j]))
        assert np.allclose(inv, np.diag([0.5, -1j]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linalg.inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_zero_dimensional(self):
        assert linalg.inverse(np.zeros((0, 0))).shape == (0, 0)

    def test_not_square(self):
        with pytest.raises(ShapeMismatch):
            linalg.inverse(np.zeros((2, 3)))

    def test_random_roundtrip(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m += 3.0 * np.eye(n)  # keep comfortably invertible
            assert linalg.max_norm(m @ linalg.inverse(m) - np.eye(n)) < 1e-10


class TestHermitian:
    def test_hermitian_true(self):
        assert linalg.is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))

    def test_nilpotent_false(self):
        assert not linalg.is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_dimensional_vacuous(self):
        assert linalg.is_hermitian(np.zeros((0, 0)))

    def test_symmetrized_always_hermitian(self, rng):
        for _ in range(10):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert linalg.is_hermitian(m + m.conj().T, tol=1e-12)

    def test_not_square(self):
        with pytest.raises(ShapeMismatch):
            linalg.is_hermitian(np.zeros((2, 3)))


class TestHelpers:
    def test_max_norm_empty(self):
        assert linalg.max_norm(np.zeros((0, 3))) == 0.0

    def test_frozen_is_readonly(self):
        m = linalg.frozen(np.eye(2))
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_inverse_permutation(self):
        inv = linalg.inverse_permutation((2, 0, 1))
        x = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(x[[2, 0, 1]][inv], x)

    def test_inverse_permutation_invalid(self):
        with pytest.raises(ValueError):
            linalg.inverse_permutation((0, 0, 1))

    def test_as_complex_matrix_rejects_vectors(self):
        with pytest.raises(ShapeMismatch):
            linalg.as_complex_matrix([1.0, 2.0])
