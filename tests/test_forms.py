"""Tests for the canonical forms and parameter counting."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qgvertex import (
    admissible_rank_pairs,
    couplings_equivalent,
    delta_parameters,
    linalg,
    parameter_count,
    pqrs_to_matrices,
    projector_to_matrices,
    random_coupling,
    reverse_st_to_matrices,
    smatrix_distance,
    st_to_matrices,
    subfamily_count,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    validate,
)
from qgvertex.errors import InvalidRankPair, SingularMatrix
from qgvertex.forms import PQRSForm, _greedy_independent_columns

from test_coupling import delta_pair


def dirichlet(n):
    return validate(np.eye(n), np.zeros((n, n)))


def neumann(n):
    return validate(np.zeros((n, n)), np.eye(n))


class TestSTForm:
    def test_neumann_degenerates_to_zero_s(self):
        f = to_st_form(neumann(3))
        assert f.r_b == 3
        assert f.T.shape == (3, 0)
        assert np.allclose(f.S, np.zeros((3, 3)))

    def test_dirichlet_is_bottom_block_only(self):
        f = to_st_form(dirichlet(3))
        assert f.r_b == 0
        assert f.S.shape == (0, 0)
        assert f.T.shape == (0, 3)
        back = st_to_matrices(f)
        assert couplings_equivalent(back, dirichlet(3))

    def test_delta_coupling_blocks(self):
        alpha = 2.0
        f = to_st_form(validate(*delta_pair(alpha)))
        assert f.r_b == 1
        assert np.allclose(f.S, [[alpha]])
        assert np.allclose(f.T, [[1.0]])

    def test_s_block_hermitian_and_roundtrip(self, rng):
        for _ in range(15):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            f = to_st_form(c)
            assert linalg.is_hermitian(f.S, 1e-12)
            assert smatrix_distance(st_to_matrices(f), c) < 1e-9


class TestReverseSTForm:
    def test_dirichlet_degenerates_to_zero_s(self):
        f = to_reverse_st_form(dirichlet(3))
        assert f.r_a == 3
        assert f.T.shape == (3, 0)
        assert np.allclose(f.S, np.zeros((3, 3)))

    def test_neumann_is_bottom_block_only(self):
        f = to_reverse_st_form(neumann(3))
        assert f.r_a == 0
        assert f.S.shape == (0, 0)
        back = reverse_st_to_matrices(f)
        assert couplings_equivalent(back, neumann(3))

    def test_delta_coupling_roundtrip(self):
        c = validate(*delta_pair(2.0))
        f = to_reverse_st_form(c)
        assert f.r_a == 2
        assert smatrix_distance(reverse_st_to_matrices(f), c) < 1e-10

    def test_random_roundtrip(self, rng):
        for _ in range(15):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            f = to_reverse_st_form(c)
            assert linalg.is_hermitian(f.S, 1e-12)
            assert smatrix_distance(reverse_st_to_matrices(f), c) < 1e-9


def svd_greedy_columns(M, count, tol):
    """Reference column pick: one SVD rank test per candidate column."""
    picked = []
    for j in range(M.shape[1]):
        if len(picked) == count:
            break
        if linalg.rank(M[:, picked + [j]], tol) == len(picked) + 1:
            picked.append(j)
    if len(picked) != count:
        raise SingularMatrix("too few independent columns")
    return picked


class TestColumnPick:
    def test_dependent_column_before_independent_one(self):
        # Neumann, Dirichlet, Neumann: column 1 of B is zero and column 2 is not
        A = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
        B = [[1, 0, 0], [0, 0, 1], [0, 0, 0]]
        f = to_st_form(validate(A, B))
        assert f.perm == (0, 2, 1)

    def test_matches_svd_reference(self, corpus):
        gen = np.random.default_rng(60)
        large = [random_coupling(60, r_a, r_b, gen)
                 for r_a, r_b in ((36, 48), (54, 30), (42, 60), (24, 36))]
        for c in list(corpus) + large:
            m = c.r_a + c.r_b - c.n
            cases = [(c.B, c.r_b), (c.A, c.r_a),
                     (np.asarray(to_st_form(c).S).conj().T, m)]
            for M, count in cases:
                M = np.asarray(M)
                assert (_greedy_independent_columns(M, count, c.tol)
                        == svd_greedy_columns(M, count, c.tol))

    def test_zero_count_and_zero_matrix(self):
        assert _greedy_independent_columns(np.ones((3, 3)), 0, 1e-10) == []
        with pytest.raises(SingularMatrix):
            _greedy_independent_columns(np.zeros((3, 3)), 1, 1e-10)


class TestPQRSForm:
    def test_dirichlet_all_blocks_empty(self):
        f = to_pqrs_form(dirichlet(2))
        assert f.block_sizes == (0, 0, 2)
        assert f.P.shape == (0, 2)
        assert f.Q.shape == (0, 2)
        assert f.R.shape == (0, 0)
        assert f.S.shape == (0, 0)
        back = pqrs_to_matrices(f)
        assert couplings_equivalent(back, dirichlet(2))

    def test_delta_coupling_blocks(self):
        alpha = 2.0
        f = to_pqrs_form(validate(*delta_pair(alpha)))
        assert f.block_sizes == (1, 0, 1)
        assert np.allclose(f.P, [[1.0]])
        assert np.allclose(f.S, [[alpha]])
        assert f.Q.shape == (0, 1)
        assert f.R.shape == (0, 1)

    def test_delta_reconstruction_matches_textbook_pair(self):
        alpha = 2.0
        f = PQRSForm(n=2, r_a=2, r_b=1, perm=(0, 1),
                     P=linalg.frozen([[1.0]]), Q=linalg.frozen(np.zeros((0, 1))),
                     R=linalg.frozen(np.zeros((0, 1))), S=linalg.frozen([[alpha]]))
        assert couplings_equivalent(pqrs_to_matrices(f), validate(*delta_pair(alpha)))

    def test_shape_law_all_rank_pairs_n5(self, rng):
        n = 5
        for r_a, r_b in admissible_rank_pairs(n):
            c = random_coupling(n, r_a, r_b, rng)
            f = to_pqrs_form(c)
            m, na, nb = r_a + r_b - n, n - r_a, n - r_b
            assert f.P.shape == (m, nb)
            assert f.Q.shape == (na, nb)
            assert f.R.shape == (na, m)
            assert f.S.shape == (m, m)

    def test_s_block_regular_and_hermitian(self, rng):
        for _ in range(15):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            f = to_pqrs_form(c)
            m = f.block_sizes[0]
            assert linalg.is_hermitian(f.S, 1e-11)
            assert linalg.rank(f.S) == m

    def test_roundtrip_and_uniqueness(self, rng):
        for _ in range(20):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            f1 = to_pqrs_form(c)
            back = pqrs_to_matrices(f1)
            assert (back.r_a, back.r_b) == (c.r_a, c.r_b)
            assert smatrix_distance(back, c) < 1e-9
            f2 = to_pqrs_form(back)
            assert f2.perm == f1.perm
            for name in ("P", "Q", "R", "S"):
                assert linalg.max_norm(getattr(f1, name) - getattr(f2, name)) < 1e-12


class TestProjectorForm:
    def test_dirichlet(self):
        p = to_projector_form(dirichlet(3))
        assert np.allclose(p.projector_p, np.eye(3))
        assert np.allclose(p.projector_q, np.zeros((3, 3)))
        assert np.allclose(p.projector_c, np.zeros((3, 3)))
        assert np.allclose(p.lam, np.zeros((3, 3)))

    def test_neumann(self):
        p = to_projector_form(neumann(3))
        assert np.allclose(p.projector_p, np.zeros((3, 3)))
        assert np.allclose(p.projector_q, np.eye(3))
        assert np.allclose(p.projector_c, np.zeros((3, 3)))

    def test_delta_coupling_projectors(self):
        # continuity is a condition on psi, so projector_p spans (1,-1)/sqrt(2);
        # no pure derivative condition remains, and lam acts on (1,1)/sqrt(2)
        alpha = 2.0
        p = to_projector_form(validate(*delta_pair(alpha)))
        v_minus = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        v_plus = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert np.allclose(p.projector_p, v_minus @ v_minus.T, atol=1e-12)
        assert np.allclose(p.projector_q, np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(p.projector_c, v_plus @ v_plus.T, atol=1e-12)
        assert np.allclose(p.lam, (alpha / 2.0) * p.projector_c, atol=1e-12)

    def test_projector_algebra(self, rng):
        for _ in range(15):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            p = to_projector_form(c)
            eye = np.eye(c.n)
            for proj in (p.projector_p, p.projector_q, p.projector_c):
                assert linalg.max_norm(proj @ proj - proj) < 1e-10
                assert linalg.is_hermitian(proj, 1e-10)
            assert linalg.max_norm(p.projector_p @ p.projector_q) < 1e-10
            assert linalg.max_norm(p.projector_p + p.projector_q + p.projector_c - eye) < 1e-10
            assert linalg.max_norm(p.projector_c @ p.lam - p.lam) < 1e-10
            assert linalg.max_norm(p.lam @ p.projector_c - p.lam) < 1e-10
            assert linalg.is_hermitian(p.lam, 1e-10)

    def test_reconstruction_is_equivalent(self, rng):
        for _ in range(10):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            assert smatrix_distance(projector_to_matrices(to_projector_form(c)), c) < 1e-9

    def test_large_round_trip_validates_at_default_tolerance(self, tmp_path, monkeypatch):
        # item 5 of the benchmark's large-n-forms pool for this seed has
        # n = 150 and ranks (135, 75); with lam = X (X*X)^{-1} S (X*X)^{-1} X*
        # the rebuilt A B* was Hermitian only to 1.4 times the default tolerance
        bench = Path(__file__).resolve().parents[1] / "bench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        item = workloads.make_large_items(1027653364, tmp_path)[5]
        assert (item.n, item.r_a, item.r_b) == (150, 135, 75)
        c = validate(item.A, item.B)
        rebuilt = projector_to_matrices(to_projector_form(c))
        assert (rebuilt.r_a, rebuilt.r_b) == (c.r_a, c.r_b)


class TestParameterCounts:
    def test_full_rank_square(self):
        assert parameter_count(3, 3, 3) == 9

    def test_paper_style_instance(self):
        assert parameter_count(5, 3, 4) == 20

    def test_dirichlet_has_none(self):
        assert parameter_count(2, 2, 0) == 0

    def test_invalid_pair(self):
        with pytest.raises(InvalidRankPair):
            parameter_count(3, 1, 1)
        with pytest.raises(InvalidRankPair):
            parameter_count(3, 4, 3)

    def test_delta_examples(self):
        assert delta_parameters(3, 3, 3) == 0
        assert delta_parameters(3, 2, 2) == 6
        assert delta_parameters(5, 3, 4) == 16

    def test_delta_invalid(self):
        with pytest.raises(InvalidRankPair):
            delta_parameters(3, 1, 1)

    def test_subfamily_values(self):
        assert subfamily_count(1) == 3
        assert subfamily_count(3) == 10
        assert subfamily_count(5) == 21

    def test_subfamily_matches_enumeration(self):
        for n in range(1, 11):
            assert subfamily_count(n) == len(admissible_rank_pairs(n))

    def test_count_identity_exhaustive(self):
        for n in range(1, 9):
            for r_a, r_b in admissible_rank_pairs(n):
                assert parameter_count(n, r_a, r_b) + (n - r_a) ** 2 + (n - r_b) ** 2 == n * n
                expected = 2 * (r_a * r_b - (r_a + r_b - n) ** 2)
                assert delta_parameters(n, r_a, r_b) == expected
