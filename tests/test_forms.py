"""Tests for the canonical forms and parameter counting."""

import re
from dataclasses import replace

import numpy as np
import pytest

from qgvertex import (
    FilterParams,
    ProjectorForm,
    admissible_rank_pairs,
    documents,
    delta_parameters,
    forms,
    haar_unitary,
    linalg,
    parameter_count,
    pqrs_to_matrices,
    projector_to_matrices,
    random_coupling,
    reverse_st_to_matrices,
    smatrix_direct,
    smatrix_pqrs,
    smatrix_projector,
    st_to_matrices,
    subfamily_count,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    to_unitary,
    validate,
)
from qgvertex.cli import main
from qgvertex.errors import (DocumentError, InvalidRankPair, InvalidShape, NonFiniteMatrix,
                             ShapeMismatch, SingularMatrix, SingularSBlock, VertexError)
from qgvertex.forms import (PQRSForm, ReverseSTForm, STForm, _greedy_independent_columns,
                            _picked_first, _st_as_pqrs, _st_reduce)

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
            tol = 1e-6 if c.n > 10 else linalg.DEFAULT_RTOL
            top, bottom = st_blocks_reference(to_st_form(c))
            st = st_to_matrices(to_st_form(c), tol)
            assert same_bits(st.A, bottom) and same_bits(st.B, top)
            top, bottom = st_blocks_reference(to_reverse_st_form(c))
            rst = reverse_st_to_matrices(to_reverse_st_form(c), tol)
            assert same_bits(rst.A, top) and same_bits(rst.B, bottom)

    def test_t_not_matching_the_declared_rank_raises(self):
        with pytest.raises(ShapeMismatch, match="block T has shape"):
            STForm(n=3, r_b=1, perm=(0, 1, 2), S=np.eye(1), T=np.ones((2, 1)))


def svd_greedy_columns(M, count):
    """Reference column pick: one SVD rank test per candidate column."""
    picked = []
    for j in range(M.shape[1]):
        if len(picked) == count:
            break
        if linalg.rank(M[:, picked + [j]], linalg.DEFAULT_RTOL) == len(picked) + 1:
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
                assert _greedy_independent_columns(M, count) == svd_greedy_columns(M, count)

    def test_zero_count_and_zero_matrix(self):
        assert _greedy_independent_columns(np.ones((3, 3)), 0) == []
        with pytest.raises(SingularMatrix):
            _greedy_independent_columns(np.zeros((3, 3)), 1)


def pick_then_qr_st_reduce(A, B, r_b):
    """Reference ST reduction: the greedy pass picks the columns of B, and the
    picked columns are factorised afterwards by one complete QR."""
    n = A.shape[0]
    order = _picked_first(_greedy_independent_columns(B, r_b), n)
    At, Bt = A[:, order], B[:, order]
    q, r = np.linalg.qr(Bt[:, :r_b], mode="complete")
    qh = q.conj().T
    qa = qh @ At
    top = np.linalg.solve(r[:r_b], np.concatenate([qh[:r_b] @ Bt[:, r_b:], qa[:r_b]], axis=1))
    T = top[:, :n - r_b]
    Ap = -np.concatenate([top[:, n - r_b:], qa[r_b:]], axis=0)
    A12, A21, A22 = Ap[:r_b, r_b:], Ap[r_b:, :r_b], Ap[r_b:, r_b:]
    S = linalg.hermitian_part(Ap[:r_b, :r_b] - A12 @ (linalg.inverse(A22) @ A21))
    return tuple(order), S, T


def pick_then_qr_pqrs(c):
    """Reference PQRS blocks (perm, P, Q, R, S): the greedy pass picks the rows
    of the reference ST form's S, and their adjoint is factorised afterwards."""
    st_perm, S_st, T_st = pick_then_qr_st_reduce(np.asarray(c.A), np.asarray(c.B), c.r_b)
    m = c.r_a + c.r_b - c.n
    sigma = _picked_first(_greedy_independent_columns(S_st.conj().T, m), c.r_b)
    Sp, Tp = S_st[np.ix_(sigma, sigma)], T_st[sigma, :]
    top, bot = Sp[:m, :], Sp[m:, :]
    q, r = np.linalg.qr(top.conj().T)
    R = -np.linalg.solve(r, q.conj().T @ bot.conj().T).conj().T
    perm = tuple(st_perm[i] for i in sigma) + st_perm[c.r_b:]
    return perm, Tp[:m], Tp[m:] + R @ Tp[:m], R, linalg.hermitian_part(Sp[:m, :m])


def random_hermitian(size, gen):
    g = gen.standard_normal((size, size)) + 1j * gen.standard_normal((size, size))
    return g + g.conj().T


def bad_column(kind, size, gen):
    """The column that makes column ``slot`` of a leading block dependent:
    zero at slot 0, a copy of e_0 or 1e-13 times a random column at slot 1."""
    slot = 0 if kind == "zero" else 1
    column = {"zero": np.zeros(size), "duplicate": np.eye(size)[0],
              "tiny": 1e-13 * (gen.standard_normal(size) + 1j * gen.standard_normal(size))}[kind]
    return slot, column


def form_with_bad_leading_column(record, n, r, kind, gen):
    """ST or reverse ST form of rank r whose matrix (I T; 0 0), in the original
    numbering, holds T's first column, set to ``bad_column``, at index
    ``slot`` and columns of I at the other r - 1 leading indices, so the
    reduction's leading columns are dependent."""
    slot, column = bad_column(kind, r, gen)
    T = gen.standard_normal((r, n - r)) + 1j * gen.standard_normal((r, n - r))
    T[:, 0] = column
    rest = [j for j in range(n) if j != slot]
    perm = tuple(rest[:r] + [slot] + rest[r:])  # T's first column lands at index slot
    return record(n, r, perm, random_hermitian(r, gen), T)


def st_form_with_bad_leading_s_column(n, r, kind, gen):
    """ST form of rank r whose S = E S' E* has rank r - 1: E is the identity of
    size r - 1 with ``bad_column`` inserted as row ``slot``, so S's leading
    columns are dependent."""
    slot, row = bad_column(kind, r - 1, gen)
    E = np.insert(np.eye(r - 1, dtype=complex), slot, row, axis=0)
    S = linalg.hermitian_part(E @ random_hermitian(r - 1, gen) @ E.conj().T)
    T = gen.standard_normal((r, n - r)) + 1j * gen.standard_normal((r, n - r))
    return STForm(n, r, tuple(range(n)), S, T)


@pytest.fixture
def call_counts(monkeypatch):
    """Counts of np.linalg.qr calls and greedy passes, reset by the test."""
    counts = {"qr": 0, "greedy": 0}
    qr, greedy = np.linalg.qr, forms._greedy_independent_columns

    def counted_qr(*args, **kwargs):
        counts["qr"] += 1
        return qr(*args, **kwargs)

    def counted_greedy(*args, **kwargs):
        counts["greedy"] += 1
        return greedy(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(forms, "_greedy_independent_columns", counted_greedy)
    return counts


class TestCertifiedPick:
    """The QR that a reduction takes anyway certifies a pick of its leading
    columns; the greedy pass runs only when that certificate fails."""

    def test_matches_pick_then_qr_bit_for_bit(self, corpus):
        for c in list(corpus) + degree_60_couplings():
            A, B = np.asarray(c.A), np.asarray(c.B)
            for M, N, r in ((A, B, c.r_b), (B, A, c.r_a)):
                got, want = _st_reduce(M, N, r), pick_then_qr_st_reduce(M, N, r)
                assert got[0] == want[0]
                assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
            f, (perm, *blocks) = to_pqrs_form(c), pick_then_qr_pqrs(c)
            assert f.perm == perm
            for name, want in zip("PQRS", blocks):
                assert same_bits(getattr(f, name), want), name

    def test_generic_coupling_takes_one_qr_per_reduction(self, corpus, call_counts):
        for c in list(corpus) + degree_60_couplings():
            for convert, qrs in ((to_st_form, 1), (to_reverse_st_form, 1), (to_pqrs_form, 2)):
                fresh = replace(c)  # a coupling keeps its ST and PQRS forms once computed
                call_counts.update(qr=0, greedy=0)
                convert(fresh)
                assert call_counts == {"qr": qrs, "greedy": 0}, (convert.__name__, c.n)

    @pytest.mark.parametrize("kind", ["zero", "duplicate", "tiny"])
    @pytest.mark.parametrize("n, r", [(3, 2), (60, 36)])
    def test_dependent_leading_column_of_b_or_a(self, n, r, kind, call_counts):
        gen = np.random.default_rng(n + len(kind))
        for record, to_matrices, convert in ((STForm, st_to_matrices, to_st_form),
                                             (ReverseSTForm, reverse_st_to_matrices,
                                              to_reverse_st_form)):
            c = to_matrices(form_with_bad_leading_column(record, n, r, kind, gen))
            A, B = np.asarray(c.A), np.asarray(c.B)
            picked_from, other = (B, A) if record is STForm else (A, B)
            call_counts.update(qr=0, greedy=0)
            got = convert(c)
            assert call_counts == {"qr": 2, "greedy": 1}
            assert list(got.perm[:r]) == svd_greedy_columns(picked_from, r)
            perm, S, T = pick_then_qr_st_reduce(other, picked_from, r)
            assert got.perm == perm and same_bits(got.S, S) and same_bits(got.T, T)

    @pytest.mark.parametrize("kind", ["zero", "duplicate", "tiny"])
    @pytest.mark.parametrize("n, r", [(3, 3), (60, 36)])
    def test_dependent_leading_column_of_s(self, n, r, kind, call_counts):
        gen = np.random.default_rng(n + len(kind))
        c = st_to_matrices(st_form_with_bad_leading_s_column(n, r, kind, gen))
        m = c.r_a + c.r_b - c.n
        assert (c.r_b, m) == (r, r - 1)
        st = to_st_form(c)
        call_counts.update(qr=0, greedy=0)
        f = to_pqrs_form(c)  # builds on the coupling's ST form computed above
        assert call_counts == {"qr": 2, "greedy": 1}
        picked = [st.perm.index(edge) for edge in f.perm[:m]]
        assert picked == svd_greedy_columns(np.asarray(st.S).conj().T, m)
        # the fallback factorises S's picked rows in the ST order, not in the
        # PQRS order as the reference does, so R agrees to rounding only
        perm, *blocks = pick_then_qr_pqrs(c)
        assert f.perm == perm
        for name, want in zip("PQRS", blocks):
            assert relative_gap(getattr(f, name), want) <= 1e-12, name


class TestOncePerCoupling:
    """A coupling record is immutable, so it derives its ST and PQRS forms once;
    the reverse ST and projector forms, which nothing else reads, per call."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        """The rank argument of each ``_st_reduce`` call while the test runs, in order."""
        ranks = []
        reduce = forms._st_reduce
        monkeypatch.setattr(forms, "_st_reduce", lambda A, B, r: ranks.append(r) or reduce(A, B, r))
        return ranks

    def test_conversions_reduce_and_split_once(self, reductions, computed_splits):
        c = random_coupling(5, 3, 4, np.random.default_rng(3))
        st, f = to_st_form(c), to_pqrs_form(c)
        to_projector_form(c)
        smatrix_pqrs(to_pqrs_form(c), 1.7)
        assert to_st_form(c) is st and to_pqrs_form(c) is f
        assert (len(reductions), computed_splits) == (1, [f])

    def test_cached_forms_match_a_fresh_validate(self, corpus):
        for c in corpus:
            to_projector_form(c)  # fills the cache through the chain first
            cached = (to_st_form(c), to_pqrs_form(c), to_projector_form(c))
            fresh = validate(c.A, c.B)
            for got, want in zip(cached, (to_st_form(fresh), to_pqrs_form(fresh),
                                          to_projector_form(fresh))):
                assert getattr(got, "perm", None) == getattr(want, "perm", None)
                for name, value in vars(want).items():
                    if isinstance(value, np.ndarray):
                        assert same_bits(getattr(got, name), value), name

    def test_replaced_coupling_recomputes_its_forms(self, reductions):
        c = random_coupling(5, 3, 4, np.random.default_rng(3))
        st, f = to_st_form(c), to_pqrs_form(c)
        other = replace(c)
        assert to_st_form(other) is not st and to_pqrs_form(other) is not f
        assert reductions == [c.r_b, c.r_b]


def lstsq_st_reduce(A, B, r_b):
    """Reference ST reduction: T by least squares, W = (B1 Q2) from a complete
    QR of B1, and the reduced pair by one n x n solve with W."""
    n = A.shape[0]
    order = _picked_first(_greedy_independent_columns(B, r_b), n)
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
    sigma = _picked_first(_greedy_independent_columns(S.conj().T, m), c.r_b)
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
                perm, S, T = _st_reduce(M, N, r)
                ref_perm, ref_S, ref_T = lstsq_st_reduce(M, N, r)
                assert perm == ref_perm
                assert relative_gap(S, ref_S) <= 1e-12
                assert relative_gap(T, ref_T) <= 1e-12

    def test_pqrs_r_matches_lstsq_reference(self, couplings):
        for c in couplings:
            assert relative_gap(np.asarray(to_pqrs_form(c).R), lstsq_pqrs_r(c)) <= 1e-12

    def test_pair_near_the_float_limits_reduces_like_its_unit_scale(self, corpus):
        # the squared column norms of the pick overflowed from entries of about 1e154 on
        for c in corpus[:30]:
            A, B = np.asarray(c.A), np.asarray(c.B)
            for scale in (1e-300, 1e300):
                for M, N, r in ((A, B, c.r_b), (B, A, c.r_a)):
                    perm, S, T = _st_reduce(scale * M, scale * N, r)
                    ref_perm, ref_S, ref_T = _st_reduce(M, N, r)
                    assert perm == ref_perm
                    assert relative_gap(S, ref_S) <= 1e-12
                    assert relative_gap(T, ref_T) <= 1e-12

    def test_singular_lower_right_block_raises(self):
        # B = diag(1, 0) picks column 0; with A = 0 the block A22 is zero
        message = r"matrix of shape \(1, 1\) is singular within rtol=1e-10"
        with pytest.raises(SingularMatrix, match=message):
            _st_reduce(np.zeros((2, 2), dtype=complex), np.diag([1.0, 0.0]).astype(complex), 1)


def scale_gap_pair(scale_a, scale_b, n=2, r_a=1, r_b=2, seed=3):
    c = random_coupling(n, r_a, r_b, np.random.default_rng(seed))
    return validate(scale_a * np.asarray(c.A), scale_b * np.asarray(c.B))


class TestScaleGap:
    """A pair whose A and B lie further apart in scale than the float range passes
    ``validate``, but a form whose S block scales like that gap cannot hold it.  The
    conversion names the gap: the ST reduction's power-of-two shift flushes the
    smaller matrix to zero, and a column pick would blame a rank deficiency instead."""

    GAP = (r"largest real or imaginary parts of A and B \(4\.04e-301 and 1\.98e\+300\) "
           r"lie a factor of about 1e601 apart")

    def test_forms_that_fit_still_convert(self):
        c = scale_gap_pair(1e-300, 1e300)
        assert to_st_form(c).r_b == 2
        assert to_unitary(c).n == 2

    @pytest.mark.parametrize("convert", [to_reverse_st_form, to_pqrs_form, to_projector_form])
    def test_conversion_names_the_scale_gap(self, convert):
        with pytest.raises(VertexError, match=self.GAP) as info:
            convert(scale_gap_pair(1e-300, 1e300))
        assert type(info.value) is VertexError

    def test_mirrored_gap_refuses_the_st_form(self):
        c = scale_gap_pair(1e300, 1e-300, 3, 3, 3, seed=2)
        assert to_reverse_st_form(c).r_a == 3
        for convert in (to_st_form, to_pqrs_form):
            with pytest.raises(VertexError, match="lie a factor of about 1e600 apart"):
                convert(c)

    @pytest.mark.parametrize("ranks", [(3, 3, 3), (4, 4, 2)])
    def test_far_larger_a_keeps_its_pqrs_form_and_scales_s(self, ranks):
        """A larger than B by 1e150 to 1e300 fits: the PQRS form is the unscaled pair's
        with S times the factor.  The pick of S's independent rows squared entries near
        1e156 and refused it with SingularSBlock from about 1e154 on."""
        c = random_coupling(*ranks, np.random.default_rng(2))
        base = to_pqrs_form(c)
        for e in (150, 160, 200, 300):
            scaled = validate(10.0**e * np.asarray(c.A), c.B)
            f = to_pqrs_form(scaled)
            assert f.perm == base.perm, e
            assert max(relative_gap(getattr(f, b), getattr(base, b)) for b in "PQR") <= 1e-12
            assert relative_gap(np.asarray(f.S) / 10.0**e, base.S) <= 1e-12, e
            try:
                to_projector_form(scaled)
            except (VertexError, ValueError):
                pass

    @pytest.mark.parametrize("error", [SingularMatrix, SingularSBlock])
    def test_failed_pick_without_a_gap_keeps_its_error(self, monkeypatch, error):
        """A rank pick that fails for a pair whose largest parts are within a float's
        range of each other is re-raised as it came, type and message."""
        def fail(A, B, r):
            raise error("found only 0 independent columns")
        monkeypatch.setattr(forms, "_st_reduce", fail)
        with pytest.raises(error, match="^found only 0 independent columns$") as info:
            to_st_form(random_coupling(3, 2, 2, np.random.default_rng(5)))
        assert type(info.value) is error

    @pytest.mark.parametrize("kind", ["reverse-st", "pqrs", "projector"])
    def test_cli_convert_exits_2_with_one_line(self, kind, tmp_path, capsys):
        path = tmp_path / "gap.json"
        path.write_text(documents.dumps(documents.coupling_to_document(
            scale_gap_pair(1e-300, 1e300))), encoding="utf-8")
        assert main(["convert", str(path), "--to", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert re.match("error: the " + self.GAP, captured.err)


class TestOneRankCut:
    def test_validation_slack_leaves_ranks_and_forms_at_the_default_cut(self):
        """``validate``'s tolerance is admissibility slack only: with one eigenphase
        1e-7 from +1, a cut at 1e-6 would give rank(A) = 3, and the forms built on
        that rank missed S(k) by 6.1e-8."""
        v = haar_unitary(4, np.random.default_rng(5))
        lam = np.exp(1j * np.array([1e-7, 0.9, -1.3, 2.0]))
        A = (v * (lam - 1.0)) @ v.conj().T
        B = (v * (1j * (lam + 1.0))) @ v.conj().T
        loose, default = validate(A, B, 1e-6), validate(A, B)
        assert (loose.r_a, loose.r_b) == (default.r_a, default.r_b) == (4, 4)
        for convert in (to_st_form, to_reverse_st_form, to_pqrs_form):
            got, want = convert(loose), convert(default)
            assert got.perm == want.perm
            for name, value in vars(want).items():
                if isinstance(value, np.ndarray):
                    assert same_bits(getattr(got, name), value), (convert.__name__, name)
        s_pqrs = smatrix_pqrs(to_pqrs_form(loose), 1.0).entries
        assert linalg.max_norm(s_pqrs - smatrix_direct(loose, 1.0).entries) <= 1e-12


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


class TestNonFiniteBlocks:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_each_block_rejected_at_construction(self, value):
        c = random_coupling(5, 3, 4, np.random.default_rng(5))
        records = [(to_st_form(c), ("S", "T")), (to_reverse_st_form(c), ("S", "T")),
                   (to_pqrs_form(c), ("P", "Q", "R", "S")),
                   (to_projector_form(c), ("projector_p", "projector_q", "projector_c", "lam"))]
        for record, blocks in records:
            for name in blocks:
                bad = np.array(getattr(record, name))
                bad[0, -1] = value
                with pytest.raises(NonFiniteMatrix, match=f"^{name} has a NaN or infinite entry$"):
                    replace(record, **{name: bad})


class TestLayoutAtConstruction:
    """A record with blocks that do not fit its n and ranks is refused when it
    is built, before any route can read it."""

    def test_t_of_the_wrong_shape(self):
        for T in (np.ones((2, 1)), np.ones((1, 1))):
            message = r"^block T has shape \(\d, 1\), expected \(1, 2\)$"
            with pytest.raises(ShapeMismatch, match=message):
                STForm(n=3, r_b=1, perm=(0, 1, 2), S=[[1]], T=T)
            with pytest.raises(ShapeMismatch, match="^block T has shape"):
                ReverseSTForm(n=3, r_a=1, perm=(0, 1, 2), S=[[1]], T=T)

    def test_pqrs_blocks_of_other_ranks(self):
        f = to_pqrs_form(random_coupling(3, 2, 2, np.random.default_rng(3)))
        assert f.block_sizes == (1, 1, 1)
        with pytest.raises(ShapeMismatch, match=r"^block P has shape \(1, 1\), expected \(1, 2\)$"):
            replace(f, r_a=3, r_b=1)

    def test_projector_blocks_of_another_degree(self):
        p = to_projector_form(random_coupling(3, rng=np.random.default_rng(4)))
        message = r"^block projector_p has shape \(3, 3\), expected \(1, 1\)$"
        with pytest.raises(ShapeMismatch, match=message):
            replace(p, n=1)

    def test_permutation_of_the_wrong_length(self):
        c = random_coupling(4, 3, 3, np.random.default_rng(6))
        for f in (to_st_form(c), to_reverse_st_form(c), to_pqrs_form(c)):
            with pytest.raises(ShapeMismatch, match=r"^permutation has length 3, expected 4$"):
                replace(f, perm=f.perm[:3])

    def test_permutation_with_a_repeated_edge(self):
        c = random_coupling(4, 3, 3, np.random.default_rng(6))
        for f in (to_st_form(c), to_reverse_st_form(c), to_pqrs_form(c)):
            with pytest.raises(ShapeMismatch, match=r"^not a permutation of 0\.\.3: \[0, 0, 1, 2\]$"):
                replace(f, perm=(0, 0, 1, 2))

    def test_inadmissible_ranks_raise_the_rank_error(self):
        with pytest.raises(InvalidRankPair, match=r"^r_b must lie in 0\.\.3, got 4$"):
            STForm(n=3, r_b=4, perm=(0, 1, 2), S=np.eye(4), T=np.ones((4, 0)))
        with pytest.raises(InvalidRankPair, match=r"^r_a must lie in 0\.\.3, got -1$"):
            ReverseSTForm(n=3, r_a=-1, perm=(0, 1, 2), S=np.eye(0), T=np.ones((0, 4)))


def zero_pqrs_blocks(n, r_a, r_b):
    """Zero P, Q, R and S for ranks (r_a, r_b), with block sizes clipped at 0
    so that an inadmissible pair fails on its ranks, not on a shape."""
    m, na, nb = (max(0, size) for size in (r_a + r_b - n, n - r_a, n - r_b))
    return {"P": np.zeros((m, nb)), "Q": np.zeros((na, nb)), "R": np.zeros((na, m)),
            "S": np.zeros((m, m))}


def pqrs_of_ranks(n, r_a, r_b):
    return PQRSForm(n=n, r_a=r_a, r_b=r_b, perm=tuple(range(n)), **zero_pqrs_blocks(n, r_a, r_b))


def pqrs_document_of_ranks(n, r_a, r_b):
    blocks = zero_pqrs_blocks(n, r_a, r_b)
    return {"form": "pqrs", "n": n, "r_a": r_a, "r_b": r_b, "permutation": list(range(1, n + 1)),
            **{key: documents.matrix_to_json(block) for key, block in blocks.items()}}


class TestRankPairRule:
    """Every entry point that takes a rank pair accepts exactly the pairs of
    ``admissible_rank_pairs`` and refuses the others with its own error."""

    ENTRY_POINTS = {
        "parameter_count": (InvalidRankPair, parameter_count),
        "FilterParams": (InvalidShape, lambda n, r_a, r_b: FilterParams(
            n=n, r_a=r_a, r_b=r_b, p=0.5, q=0.5, r=0.5, s=1.0)),
        "random_coupling": (InvalidRankPair, lambda n, r_a, r_b: random_coupling(
            n, r_a, r_b, np.random.default_rng(n))),
        "PQRSForm": (InvalidRankPair, pqrs_of_ranks),
        "parse_document": (DocumentError, lambda n, r_a, r_b: documents.parse_document(
            pqrs_document_of_ranks(n, r_a, r_b))),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point_accepts_exactly_the_admissible_pairs(self, entry):
        error, call = self.ENTRY_POINTS[entry]
        for n in range(1, 5):
            admissible = set(admissible_rank_pairs(n))
            for r_a in range(-1, n + 2):
                for r_b in range(-1, n + 2):
                    if (r_a, r_b) in admissible:
                        call(n, r_a, r_b)
                    else:
                        with pytest.raises(error):
                            call(n, r_a, r_b)

    def test_random_coupling_needs_both_ranks_or_neither(self):
        for r_a, r_b in ((2, None), (None, 2)):
            with pytest.raises(InvalidRankPair, match="^prescribe both ranks or neither$"):
                random_coupling(3, r_a, r_b, np.random.default_rng(1))

    def test_block_sizes_is_the_rule(self):
        assert forms.block_sizes(5, 3, 4) == (2, 2, 1)
        assert forms.block_sizes(2, 2, 0) == (0, 0, 2)
        with pytest.raises(InvalidRankPair, match=r"^r_a \+ r_b must be at least n$"):
            forms.block_sizes(3, 1, 1)
        assert InvalidShape is InvalidRankPair


def hermitian_basis(n: int) -> list[np.ndarray]:
    """A real basis, n^2 matrices, of the n x n Hermitian matrices."""
    basis = []
    for i, j in np.ndindex(n, n):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0 if i <= j else 1j
        basis.append(e + e.conj().T if i != j else e)
    return basis


def exp_i(x: np.ndarray) -> np.ndarray:
    """exp(i x) of a Hermitian x: a unitary, exp(X) for the skew-Hermitian X = i x."""
    w, v = np.linalg.eigh(x)
    return (v * np.exp(1j * w)) @ v.conj().T


def tangent_rank(differences, h: float) -> int:
    """Rank of the central differences U(+h e) - U(-h e), one column per direction e.
    A direction of the family moves U at a rate of order one, rounding at about
    eps / h = 2e-11, so the cut 1e-6 is absolute: it also counts a family of rank 0."""
    if not differences:
        return 0
    jacobian = np.stack([np.concatenate([d.real.ravel(), d.imag.ravel()])
                         for d in differences], axis=1) / (2.0 * h)
    return int(np.count_nonzero(np.linalg.svd(jacobian, compute_uv=False) > 1e-6))


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

    def test_blocks_are_independent_parameters(self):
        """The central-difference Jacobian of (P, Q, R, S) -> U = S(1), S Hermitian and
        the numbering the identity, each column pulled back to the Lie algebra by U*, for
        every rank pair with n <= 6.  Its columns keep the eigenvalues 1 and -1 of U at
        their multiplicities n - r_a and n - r_b to first order, so they lie in the tangent
        space of that stratum of U(n), whose dimension is ``parameter_count``; and the
        Jacobian has that rank: the blocks are local coordinates on the stratum."""
        gen = np.random.default_rng(9)
        h = 1e-6
        rank_gap, compression = np.inf, 0.0  # smallest s_min / s_max, largest compression
        for n in range(1, 7):
            for r_a, r_b in admissible_rank_pairs(n):
                layout = PQRSForm.layout(n, r_a, r_b)
                blocks = {name: gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
                          for name, shape in layout.items()}
                blocks["S"] = linalg.hermitian_part(blocks["S"])

                def unitary(step):
                    moved = {name: blocks[name] + step.get(name, 0.0) for name in layout}
                    f = PQRSForm(n, r_a, r_b, tuple(range(n)), **moved)
                    return np.asarray(smatrix_pqrs(f, 1.0).entries)

                u = unitary({})
                eigenspaces = []  # orthonormal bases of ker(U - I) and ker(U + I)
                for sign in (1.0, -1.0):
                    _, sv, vh = np.linalg.svd(u - sign * np.eye(n))
                    eigenspaces.append(vh[sv <= 1e-8].conj().T)
                assert [v.shape[1] for v in eigenspaces] == [n - r_a, n - r_b]
                columns = []
                for name, shape in layout.items():
                    for i, j in np.ndindex(*shape):
                        hermitian = name == "S"
                        if hermitian and i > j:
                            continue  # S_ji is the conjugate of S_ij
                        for unit in (1.0,) if hermitian and i == j else (1.0, 1j):
                            e = np.zeros(shape, dtype=complex)
                            e[i, j] = unit * h
                            if hermitian:
                                e[j, i] = np.conj(unit) * h
                            x = u.conj().T @ (unitary({name: e}) - unitary({name: -e})) / (2.0 * h)
                            compression = max(compression, *(linalg.max_norm(v.conj().T @ x @ v)
                                                             for v in eigenspaces))
                            columns.append(np.concatenate([x.real.ravel(), x.imag.ravel()]))
                count = parameter_count(n, r_a, r_b)
                assert len(columns) == count
                if count:
                    sv = np.linalg.svd(np.array(columns), compute_uv=False)
                    rank_gap = min(rank_gap, sv[-1] / sv[0])
        assert rank_gap > 1e-6 and compression <= 1e-7, (rank_gap, compression)

    def test_stratum_dimension_is_the_parameter_count(self):
        """The unitaries V diag(1, -1, e^{i theta}) V*, V = exp(X) with X skew-Hermitian,
        +1 taken n - r_a times, -1 n - r_b times and m free phases, form a stratum of
        U(n) whose tangent rank, computed with no PQRS code, is ``parameter_count``."""
        gen = np.random.default_rng(9)
        h = 1e-5
        for n in range(1, 6):
            basis = hermitian_basis(n)
            x0 = sum(0.5 * gen.standard_normal() * e for e in basis)
            for r_a, r_b in admissible_rank_pairs(n):
                m = r_a + r_b - n
                theta = gen.uniform(0.3, 2.8, size=m)

                def unitary(x, phases):
                    v = exp_i(x)
                    d = np.concatenate([np.ones(n - r_a), -np.ones(n - r_b), np.exp(1j * phases)])
                    return (v * d) @ v.conj().T

                columns = [unitary(x0 + h * e, theta) - unitary(x0 - h * e, theta) for e in basis]
                columns += [unitary(x0, theta + h * e) - unitary(x0, theta - h * e)
                            for e in np.eye(m)]
                assert tangent_rank(columns, h) == parameter_count(n, r_a, r_b), (n, r_a, r_b)

    def test_lam_and_the_projector_ranges_make_up_the_parameter_count(self):
        """U = S(1) of a projector form moves along m^2 directions with lam alone;
        rotating the ranges of proj_p and proj_q as well brings its tangent rank to
        ``parameter_count``, so the two ranges carry ``delta_parameters`` of them."""
        gen = np.random.default_rng(9)
        h = 1e-5
        for n in range(1, 6):
            for r_a, r_b in admissible_rank_pairs(n):
                m = r_a + r_b - n
                w0 = haar_unitary(n, gen)
                dims = np.repeat((0, 1, 2), (n - r_b, n - r_a, m))  # ranges of p, q, c
                projectors = [np.diag(dims == mu).astype(complex) for mu in range(3)]
                lam_c = np.zeros((n, n), dtype=complex)
                lam_c[n - m:, n - m:] = linalg.hermitian_part(gen.standard_normal((m, m)))

                def unitary(rotation, lam_step):
                    w = exp_i(rotation) @ w0
                    p, q, c, lam = (w @ x @ w.conj().T for x in (*projectors, lam_c + lam_step))
                    return np.asarray(smatrix_projector(ProjectorForm(n, p, q, c, lam), 1.0).entries)

                still = np.zeros((n, n))
                lam_steps = [np.pad(e, ((n - m, 0), (n - m, 0))) for e in hermitian_basis(m)]
                lam_columns = [unitary(still, h * e) - unitary(still, -h * e) for e in lam_steps]
                range_columns = [unitary(h * e, 0.0) - unitary(-h * e, 0.0)
                                 for e in hermitian_basis(n)]
                count = parameter_count(n, r_a, r_b)
                assert tangent_rank(lam_columns, h) == m * m, (n, r_a, r_b)
                assert tangent_rank(lam_columns + range_columns, h) == count, (n, r_a, r_b)
                assert count - m * m == delta_parameters(n, r_a, r_b)
                c = projector_to_matrices(ProjectorForm(n, *projectors, lam_c))
                assert (c.r_a, c.r_b) == (r_a, r_b)

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

    def test_subfamily_of_no_edges_is_refused(self):
        with pytest.raises(InvalidRankPair, match="^vertex degree must be positive, got 0$"):
            subfamily_count(0)

    def test_subfamily_matches_enumeration(self):
        for n in range(1, 11):
            assert subfamily_count(n) == len(admissible_rank_pairs(n))

    def test_count_identity_exhaustive(self):
        for n in range(1, 9):
            for r_a, r_b in admissible_rank_pairs(n):
                assert parameter_count(n, r_a, r_b) + (n - r_a) ** 2 + (n - r_b) ** 2 == n * n
                expected = 2 * (r_a * r_b - (r_a + r_b - n) ** 2)
                assert delta_parameters(n, r_a, r_b) == expected
                by_subspaces = 2 * r_a * (n - r_a) + 2 * (n - r_b) * (r_a + r_b - n)
                assert delta_parameters(n, r_a, r_b) == by_subspaces
