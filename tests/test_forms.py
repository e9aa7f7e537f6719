"""Tests for the canonical forms and parameter counting."""

import numpy as np
import pytest

from qgvertex import (
    admissible_rank_pairs,
    delta_parameters,
    linalg,
    parameter_count,
    pqrs_to_matrices,
    projector_to_matrices,
    random_coupling,
    reverse_st_to_matrices,
    smatrix_direct,
    smatrix_pqrs,
    st_to_matrices,
    subfamily_count,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    validate,
)
from qgvertex.errors import InvalidRankPair, ShapeMismatch, SingularMatrix
from qgvertex.forms import (PQRSForm, STForm, _greedy_independent_columns, _picked_first,
                            _st_as_pqrs, _st_reduce)

from conftest import couplings_equivalent, smatrix_distance
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


def st_blocks_reference(f):
    """(I T; 0 0) and -(S 0; -T* I) in the original numbering, written out
    directly: (B, A) of an ST form and (A, B) of a reverse ST form."""
    n, r = f.n, f.T.shape[0]
    inv = linalg.inverse_permutation(f.perm)
    top = np.zeros((n, n), dtype=complex)
    top[:r, :r] = np.eye(r)
    top[:r, r:] = f.T
    bottom = np.zeros((n, n), dtype=complex)
    bottom[:r, :r] = f.S
    bottom[r:, :r] = -f.T.conj().T
    bottom[r:, r:] = np.eye(n - r)
    return top[:, inv], 0.0 - bottom[:, inv]


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike ==, tells -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSTAsPQRS:
    def test_pqrs_form_with_full_rank_a_is_the_st_view(self, corpus):
        full = [c for c in corpus if c.r_a == c.n]
        assert len(full) >= 20
        for c in full:
            f, view = to_pqrs_form(c), _st_as_pqrs(to_st_form(c))
            assert (view.n, view.r_a, view.r_b) == (f.n, f.r_a, f.r_b)
            assert view.perm == f.perm
            for name in "PQRS":
                assert same_bits(getattr(view, name), getattr(f, name)), name
            assert view.Q.shape == (0, c.n - c.r_b) and view.R.shape == (0, c.r_b)

    def test_assembled_pairs_match_the_direct_blocks(self, corpus):
        for c in list(corpus) + degree_60_couplings()[:1]:
            tol = 1e-6 if c.n > 10 else c.tol
            top, bottom = st_blocks_reference(to_st_form(c))
            st = st_to_matrices(to_st_form(c), tol)
            assert same_bits(st.A, bottom) and same_bits(st.B, top)
            top, bottom = st_blocks_reference(to_reverse_st_form(c))
            rst = reverse_st_to_matrices(to_reverse_st_form(c), tol)
            assert same_bits(rst.A, top) and same_bits(rst.B, bottom)

    def test_t_not_matching_the_declared_rank_raises(self):
        f = STForm(n=3, r_b=1, perm=(0, 1, 2), S=np.eye(1), T=np.ones((2, 1)))
        with pytest.raises(ShapeMismatch, match="block P has shape"):
            st_to_matrices(f)


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


def degree_60_couplings():
    gen = np.random.default_rng(60)
    return [random_coupling(60, r_a, r_b, gen)
            for r_a, r_b in ((36, 48), (54, 30), (42, 60), (24, 36))]


class TestColumnPick:
    def test_dependent_column_before_independent_one(self):
        # Neumann, Dirichlet, Neumann: column 1 of B is zero and column 2 is not
        A = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
        B = [[1, 0, 0], [0, 0, 1], [0, 0, 0]]
        f = to_st_form(validate(A, B))
        assert f.perm == (0, 2, 1)

    def test_matches_svd_reference(self, corpus):
        for c in list(corpus) + degree_60_couplings():
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


def lstsq_st_reduce(A, B, r_b, tol):
    """Reference ST reduction: T by least squares, W = (B1 Q2) from a complete
    QR of B1, and the reduced pair by one n x n solve with W."""
    n = A.shape[0]
    order = _picked_first(_greedy_independent_columns(B, r_b, tol), n)
    At, Bt = A[:, order], B[:, order]
    B1 = Bt[:, :r_b]
    T = np.linalg.lstsq(B1, Bt[:, r_b:], rcond=None)[0]
    q, _ = np.linalg.qr(B1, mode="complete")
    Ap = -np.linalg.solve(np.concatenate([B1, q[:, r_b:]], axis=1), At)
    A12, A21, A22 = Ap[:r_b, r_b:], Ap[r_b:, :r_b], Ap[r_b:, r_b:]
    S = linalg.hermitian_part(Ap[:r_b, :r_b] - A12 @ np.linalg.solve(A22, A21))
    return tuple(order), S, T


def lstsq_pqrs_r(c):
    """Reference R of the PQRS form: least squares for bot = -R top."""
    S = np.asarray(to_st_form(c).S)
    m = c.r_a + c.r_b - c.n
    sigma = _picked_first(_greedy_independent_columns(S.conj().T, m, c.tol), c.r_b)
    Sp = S[np.ix_(sigma, sigma)]
    top, bot = Sp[:m, :], Sp[m:, :]
    return -np.linalg.lstsq(top.conj().T, bot.conj().T, rcond=None)[0].conj().T


def relative_gap(got, want) -> float:
    return linalg.max_norm(got - want) / max(1.0, linalg.max_norm(want))


class TestReduction:
    @pytest.fixture(scope="class")
    def couplings(self, corpus):
        return list(corpus) + degree_60_couplings()

    def test_st_reduce_matches_lstsq_reference(self, couplings):
        for c in couplings:
            A, B = np.asarray(c.A), np.asarray(c.B)
            for M, N, r in ((A, B, c.r_b), (B, A, c.r_a)):
                perm, S, T = _st_reduce(M, N, r, c.tol)
                ref_perm, ref_S, ref_T = lstsq_st_reduce(M, N, r, c.tol)
                assert perm == ref_perm
                assert relative_gap(S, ref_S) <= 1e-12
                assert relative_gap(T, ref_T) <= 1e-12

    def test_pqrs_r_matches_lstsq_reference(self, couplings):
        for c in couplings:
            assert relative_gap(np.asarray(to_pqrs_form(c).R), lstsq_pqrs_r(c)) <= 1e-12

    def test_singular_lower_right_block_raises(self):
        # B = diag(1, 0) picks column 0; with A = 0 the block A22 is zero
        message = ("lower-right block of the reduced pair is singular; "
                   "the input pair is numerically inadmissible")
        with pytest.raises(SingularMatrix, match=message):
            _st_reduce(np.zeros((2, 2), dtype=complex), np.diag([1.0, 0.0]).astype(complex),
                       1, 1e-10)


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

    def test_large_round_trip_validates_at_default_tolerance(self, bench_workloads, tmp_path):
        # item 5 of the benchmark's large-n-forms pool for this seed has
        # n = 150 and ranks (135, 75); with lam = X (X*X)^{-1} S (X*X)^{-1} X*
        # the rebuilt A B* was Hermitian only to 1.4 times the default tolerance
        item = bench_workloads.make_large_items(1027653364, tmp_path)[5]
        assert (item.n, item.r_a, item.r_b) == (150, 135, 75)
        c = validate(item.A, item.B)
        rebuilt = projector_to_matrices(to_projector_form(c))
        assert (rebuilt.r_a, rebuilt.r_b) == (c.r_a, c.r_b)
        # the PQRS route missed S(k) here by 1.09e-9 when it formed Z*Z and X*X
        f = to_pqrs_form(c)
        for k in item.ks:
            s = smatrix_pqrs(f, k).entries
            assert linalg.max_norm(s - smatrix_direct(c, k).entries) <= 5e-10


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
