"""Tests for the dense complex matrix primitives."""

import math
import re

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
        # a cut at tol >= 1 gives rank 0 for every matrix, and NaN compares false
        for tol in (-1.0, 1.0, 2.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="rank tolerance must lie strictly between"):
                linalg.rank(np.eye(2), tol=tol)

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

    def test_singular_message(self):
        for m in (np.zeros((3, 3)), np.diag([1.0, 1e-12])):
            message = f"matrix of shape {m.shape} is singular within rtol=1e-10"
            with pytest.raises(SingularMatrix, match=re.escape(message)):
                linalg.inverse(m)

    def test_rank_test_decides_only_when_the_bound_fails(self, monkeypatch):
        calls = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda m, tol=linalg.DEFAULT_RTOL:
                            calls.append(tol) or rank(m, tol))
        linalg.inverse(np.eye(8))
        assert calls == []
        # |M|_F |M^-1|_F = 6.7e9 is not below 1/(2 rtol) = 5e9, though cond_2(M) is
        # below 1/rtol, so the rank test decides and finds full rank
        m = np.diag([1.0, 1.5e-10]).astype(complex)
        inv = linalg.inverse(m)
        assert calls == [1e-10]
        assert inv.tobytes() == np.linalg.inv(m).tobytes()

    def test_huge_entries_fall_back_to_the_rank_test_silently(self):
        # |M|_F overflows to inf and |M^-1|_F underflows to 0: their product is NaN,
        # which used to escape as "invalid value" RuntimeWarning
        m = 1e200 * np.eye(2, dtype=complex)
        assert linalg.inverse(m).tobytes() == np.linalg.inv(m).tobytes()

    def test_equals_numpy_inverse_bit_for_bit(self, rng):
        for n in (1, 2, 5, 30, 150):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert linalg.inverse(m).tobytes() == np.linalg.inv(m).tobytes()


class TestHermitian:
    def test_hermitian_true(self):
        assert linalg.is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]), linalg.DEFAULT_ATOL)

    def test_nilpotent_false(self):
        assert not linalg.is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), linalg.DEFAULT_ATOL)

    def test_zero_dimensional_vacuous(self):
        assert linalg.is_hermitian(np.zeros((0, 0)), linalg.DEFAULT_ATOL)

    def test_symmetrized_always_hermitian(self, rng):
        for _ in range(10):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert linalg.is_hermitian(m + m.conj().T, tol=1e-12)

    def test_not_square(self):
        with pytest.raises(ShapeMismatch):
            linalg.is_hermitian(np.zeros((2, 3)), linalg.DEFAULT_ATOL)


class TestHelpers:
    def test_max_norm_empty(self):
        assert linalg.max_norm(np.zeros((0, 3))) == 0.0

    def test_largest_part_is_finite_where_the_modulus_overflows(self):
        m = np.array([[1.5e308 + 1.5e308j, -1.7e308], [0.0, 1e-300j]])
        with np.errstate(over="ignore"):
            assert linalg.max_norm(m) == np.inf
        assert linalg.largest_part(m) == 1.7e308
        assert linalg.largest_part(np.zeros((0, 3), dtype=complex)) == 0.0

    def test_in_range_shifts_by_one_power_of_two(self):
        small = np.array([[2.0 + 1.0j, 1e150]])
        assert linalg.in_range(small)[0] is small  # within 2^+-500: as given
        m, tiny = np.array([[1.5e308 + 1.5e308j, -3.0]]), np.array([[1e-310j, 5e-324]])
        shifted, flushed = linalg.in_range(m, tiny)  # one shift for both, from m's 2^1024
        assert linalg.largest_part(shifted) == math.ldexp(1.5e308, -1024)
        assert np.array_equal(np.ldexp(shifted.view(float), 1024).view(complex), m)
        assert not flushed.any()
        assert 0.5 <= linalg.largest_part(linalg.in_range(tiny)[0]) < 1.0

    def test_unitarity_guard_runs_its_computation_with_warnings_off(self):
        """The guard returns what it checked, and refuses an S whose entries overflow with
        its ValueError; numpy's overflow warning, an error in this suite, stays off."""
        s = np.eye(2)[None]
        assert linalg.require_unitary_columns(lambda: s, [1.0], "cause") is s
        message = r"^S\(k\) is not finite or not unitary for k in \[2, 3\] \(cause\): .* by inf$"
        with pytest.raises(ValueError, match=message):
            linalg.require_unitary_columns(lambda: np.full((2, 1, 1), 1e200) * 1e200, [2.0, 3.0], "cause")

    def test_rank_of_a_matrix_whose_modulus_overflows(self):
        m = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0e300]])
        assert linalg.rank(m) == 2
        assert linalg.rank(m[:, :1] * np.ones((1, 2))) == 1
        assert linalg.rank(np.array([[1.7e308, 1.7e308], [1.7e308, 1.6e308]])) == 2

    def test_frozen_is_readonly(self):
        m = linalg.frozen(np.eye(2))
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_inverse_permutation(self):
        inv = linalg.inverse_permutation((2, 0, 1))
        x = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(x[[2, 0, 1]][inv], x)

    def test_unpermute_undoes_the_permutation(self, rng):
        perm = (3, 0, 4, 1, 2)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        back = linalg.unpermute(m[np.ix_(perm, perm)], perm)
        assert np.array_equal(back, m)
        inv = linalg.inverse_permutation(perm)
        assert np.array_equal(linalg.unpermute(m, perm), m[np.ix_(inv, inv)])

    def test_inverse_permutation_invalid(self):
        with pytest.raises(ValueError):
            linalg.inverse_permutation((0, 0, 1))

    def test_as_complex_matrix_rejects_vectors(self):
        with pytest.raises(ShapeMismatch):
            linalg.as_complex_matrix([1.0, 2.0])
