"""Tests for the scattering routes, limits and expansions."""

import re
from contextlib import suppress
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from qgvertex import (
    SMatrix,
    admissible_rank_pairs,
    amplitude_limits,
    bc_residual,
    classify_branching,
    documents,
    expand,
    from_unitary,
    limit_high_k,
    limit_low_k,
    linalg,
    probability_sweep,
    pqrs_to_matrices,
    projector_to_matrices,
    random_coupling,
    reverse_st_to_matrices,
    smatrix_direct,
    smatrix_pqrs,
    smatrix_projector,
    smatrix_reverse_st,
    smatrix_st,
    st_to_matrices,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    to_unitary,
    uniform_block_pqrs,
    validate,
)
from qgvertex.errors import SeriesDivergence, SingularSBlock
from qgvertex.filters import FIG1_PARAMS, FilterParams
from qgvertex.forms import ProjectorForm, ReverseSTForm, STForm

from conftest import unitarity_defect
from test_coupling import delta_pair
from test_forms import degree_60_couplings

KIRCHHOFF3_A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
KIRCHHOFF3_B = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def dirichlet(n):
    return validate(np.eye(n), np.zeros((n, n)))


def neumann(n):
    return validate(np.zeros((n, n)), np.eye(n))


def gap(a, b) -> float:
    return linalg.max_norm(np.asarray(a) - np.asarray(b))


def build_x(f):
    """The paper's auxiliary matrix X = W - Z (Z*Z)^{-1} Z* W of a PQRS form,
    with Z = (R*; I; Q*) and W = (I; 0; P*), in permuted coordinates."""
    m, na, _ = f.block_sizes
    P, Q, R = (np.asarray(b) for b in (f.P, f.Q, f.R))
    Z = np.vstack([R.conj().T, np.eye(na), Q.conj().T])
    W = np.vstack([np.eye(m), np.zeros((na, m)), P.conj().T])
    return W - Z @ np.linalg.solve(Z.conj().T @ Z, Z.conj().T @ W)


def x_projector_gap(f) -> float:
    """Gap between U U* = Q_x Q_x* of the split and X (X*X)^{-1} X* of ``build_x``."""
    _, u, _ = f.split
    x = build_x(f)
    return gap(u @ u.conj().T, x @ np.linalg.solve(x.conj().T @ x, x.conj().T))


class TestDirectRoute:
    def test_dirichlet_total_reflection(self):
        for k in (0.1, 1.0, 50.0):
            assert gap(smatrix_direct(dirichlet(3), k).entries, -np.eye(3)) < 1e-14

    def test_neumann_total_transmission(self):
        for k in (0.1, 1.0, 50.0):
            assert gap(smatrix_direct(neumann(3), k).entries, np.eye(3)) < 1e-14

    def test_kirchhoff_three_edges(self):
        # direct evaluation gives diagonal -1/3 and off-diagonal 2/3;
        # cross-checked below through the ST route with S = 0, T = (1, 1)^T
        c = validate(KIRCHHOFF3_A, KIRCHHOFF3_B)
        s = smatrix_direct(c, 1.0).entries
        expected = -np.eye(3) / 3.0 + (2.0 / 3.0) * (np.ones((3, 3)) - np.eye(3))
        assert gap(s, expected) < 1e-12
        st = STForm(n=3, r_b=1, perm=(0, 1, 2),
                    S=linalg.frozen(np.zeros((1, 1))),
                    T=linalg.frozen(np.array([[1.0, 1.0]])))
        assert gap(smatrix_st(st, 1.0).entries, expected) < 1e-12

    def test_momentum_must_be_positive(self):
        c = random_coupling(4, 3, 2, np.random.default_rng(1))
        records = {smatrix_direct: c, smatrix_st: to_st_form(c),
                   smatrix_reverse_st: to_reverse_st_form(c), smatrix_pqrs: to_pqrs_form(c),
                   smatrix_projector: to_projector_form(c)}
        for route, record in records.items():
            for bad in (0.0, -0.0, -1.0, np.inf, np.nan):
                with pytest.raises(ValueError, match="momentum k must be positive"):
                    route(record, bad)

    def test_unitary_for_random_couplings(self, rng):
        for _ in range(10):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            for k in np.logspace(-3, 3, 7):
                assert unitarity_defect(smatrix_direct(c, k).entries) < 1e-10


    def test_unitary_is_s_at_one(self, corpus):
        for c in list(corpus) + degree_60_couplings():
            u, s = np.asarray(to_unitary(c).U), np.asarray(smatrix_direct(c, 1.0).entries)
            assert np.array_equal(u.view(np.uint64), s.view(np.uint64)), c.n


class TestFormRoutes:
    def test_st_neumann_identity(self):
        f = to_st_form(neumann(3))
        assert gap(smatrix_st(f, 2.0).entries, np.eye(3)) < 1e-12

    def test_st_delta_matches_direct(self):
        c = validate(*delta_pair(2.0))
        f = to_st_form(c)
        assert gap(smatrix_st(f, 1.0).entries, smatrix_direct(c, 1.0).entries) < 1e-12

    def test_st_kirchhoff_momentum_independent(self):
        c = validate(KIRCHHOFF3_A, KIRCHHOFF3_B)
        f = to_st_form(c)
        values = [np.asarray(smatrix_st(f, k).entries) for k in (0.1, 1.0, 10.0)]
        assert gap(values[0], values[1]) < 1e-12
        assert gap(values[1], values[2]) < 1e-12
        assert gap(values[0], smatrix_direct(c, 5.0).entries) < 1e-12

    def test_reverse_st_dirichlet(self):
        f = to_reverse_st_form(dirichlet(3))
        assert gap(smatrix_reverse_st(f, 2.0).entries, -np.eye(3)) < 1e-12

    def test_reverse_st_delta_on_grid(self):
        c = validate(*delta_pair(2.0))
        f = to_reverse_st_form(c)
        for k in (0.1, 1.0, 10.0):
            assert gap(smatrix_reverse_st(f, k).entries, smatrix_direct(c, k).entries) < 1e-10

    def test_all_routes_agree(self, rng):
        for _ in range(12):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            st = to_st_form(c)
            rst = to_reverse_st_form(c)
            pqrs = to_pqrs_form(c)
            proj = to_projector_form(c)
            for k in (0.1, 1.0, 10.0):
                reference = np.asarray(smatrix_direct(c, k).entries)
                for s in (smatrix_st(st, k), smatrix_reverse_st(rst, k),
                          smatrix_pqrs(pqrs, k), smatrix_projector(proj, k)):
                    assert gap(s.entries, reference) < 1e-9

    def test_route_limit_expansion_and_projector_matrices_are_read_only(self):
        c = random_coupling(5, 3, 4, np.random.default_rng(2))
        st, rst, pqrs, proj = (to_st_form(c), to_reverse_st_form(c), to_pqrs_form(c),
                               to_projector_form(c))
        matrices = [s.entries for s in (smatrix_direct(c, 1.3), smatrix_st(st, 1.3),
                                        smatrix_reverse_st(rst, 1.3), smatrix_pqrs(pqrs, 1.3),
                                        smatrix_projector(proj, 1.3), limit_high_k(pqrs),
                                        limit_low_k(pqrs, allow_singular=True))]
        for kind in ("high-k", "low-k"):
            matrices += expand(pqrs, kind, 2).coefficients
        matrices += [proj.projector_p, proj.projector_q, proj.projector_c, proj.lam]
        assert len(matrices) == 17
        for m in matrices:
            assert m.dtype == complex and not m.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0


    def test_reverse_st_is_st_at_inverse_momentum(self, corpus):
        # with the same (perm, S, T), I + TT* - ikS is the adjoint of
        # I + TT* - S/(i/k), so the reverse ST route gives -S_st(1/k)*
        for c in corpus:
            for f in (to_st_form(c), to_reverse_st_form(c)):
                r = len(f.T)
                st, rst = STForm(f.n, r, f.perm, f.S, f.T), ReverseSTForm(f.n, r, f.perm, f.S, f.T)
                for k in (0.1, 1.7, 40.0):
                    s = np.asarray(smatrix_st(st, 1.0 / k).entries)
                    assert gap(smatrix_reverse_st(rst, k).entries, -s.conj().T) <= 1e-11


def eigh_smatrix_projector(p, k):
    """Reference: the resolvent inverted in an eigenbasis qc of proj_c."""
    w, v = np.linalg.eigh(np.asarray(p.projector_c))
    qc = v[:, w > 0.5]
    eye = np.eye(qc.shape[1])
    lam_c = qc.conj().T @ np.asarray(p.lam) @ qc
    resolvent = np.linalg.solve(lam_c - 1j * k * eye, (lam_c + 1j * k * eye) @ qc.conj().T)
    return -np.asarray(p.projector_p) + np.asarray(p.projector_q) - qc @ resolvent


class TestProjectorRoute:
    def test_matches_eigh_reference_on_corpus(self, corpus):
        for c in corpus:
            p = to_projector_form(c)
            for k in (0.1, 1.0, 10.0):
                assert gap(smatrix_projector(p, k).entries, eigh_smatrix_projector(p, k)) <= 1e-12

    def test_lam_outside_range_of_proj_c_is_ignored(self, rng):
        # lam has components outside range(proj_c); both formulas use only
        # proj_c lam proj_c, so they agree and S(k) stays unitary
        v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        proj = [v[:, cols] @ v[:, cols].conj().T for cols in ([0], [1], [2, 3])]
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam = h + h.conj().T
        assert linalg.max_norm(proj[2] @ lam @ proj[2] - lam) > 0.1
        p = ProjectorForm(n=4, projector_p=linalg.frozen(proj[0]),
                          projector_q=linalg.frozen(proj[1]),
                          projector_c=linalg.frozen(proj[2]), lam=linalg.frozen(lam))
        for k in (0.1, 1.0, 10.0):
            s = smatrix_projector(p, k).entries
            assert gap(s, eigh_smatrix_projector(p, k)) <= 1e-12
            assert unitarity_defect(s) < 1e-12


class TestBuildX:
    """The split's U spans the paper's X: the PQRS route reads X off it."""

    def test_full_rank_coupling_gives_identity(self, rng):
        c = random_coupling(3, 3, 3, rng)
        f = to_pqrs_form(c)
        assert gap(build_x(f), np.eye(3)) < 1e-12
        assert x_projector_gap(f) < 1e-12

    def test_delta_coupling_column(self):
        f = to_pqrs_form(validate(*delta_pair(2.0)))
        assert gap(build_x(f), np.array([[1.0], [1.0]])) < 1e-12
        assert x_projector_gap(f) < 1e-12

    def test_fig1_preset_full_column_rank(self):
        f = uniform_block_pqrs(FIG1_PARAMS)
        x = build_x(f)
        assert x.shape == (5, 2)
        assert linalg.rank(x) == 2
        assert x_projector_gap(f) < 1e-12

    def test_corpus_projectors_agree(self, corpus):
        assert max(x_projector_gap(to_pqrs_form(c)) for c in corpus) < 1e-12


class TestOneSplitPerRecord:
    """A PQRS record computes its split once, and every consumer reads it."""

    def test_route_limits_and_series_share_the_split(self, computed_splits):
        f = to_pqrs_form(random_coupling(5, 3, 4, np.random.default_rng(2)))
        for k in (0.1, 1.0, 10.0):
            smatrix_pqrs(f, k)
        limit_high_k(f)
        limit_low_k(f)
        expand(f, "high-k", 2)
        expand(f, "low-k", 2)
        assert computed_splits == [f]

    def test_split_and_spectrum_are_cached_read_only(self):
        """The one triple (proj_z, U, w) holds the spectrum (U, w) too."""
        f = to_pqrs_form(random_coupling(5, 3, 4, np.random.default_rng(2)))
        assert f.split is f.split and len(f.split) == 3
        for a in f.split:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0


def mp_array(a) -> np.ndarray:
    """A complex array as an object array of mpmath numbers, exactly."""
    return np.vectorize(mpmath.mpc, otypes=[object])(np.asarray(a, dtype=complex))


def pqrs_smatrix_30(f, k: float) -> np.ndarray:
    """S(k) = -(A + ikB)^{-1} (A - ikB) of the PQRS form ``f`` at 30 digits: its float
    blocks assembled into (A, B) exactly as the form writes them, under the form's own
    permutation, then rounded to complex and returned in the original numbering."""
    m, na, nb = f.block_sizes
    with mpmath.workdps(30):
        P, Q, R, S = (mp_array(b) for b in (f.P, f.Q, f.R, f.S))
        eye = lambda size: mp_array(np.eye(size))
        zeros = lambda rows, cols: mp_array(np.zeros((rows, cols)))
        adj = lambda x: x.conj().T
        B = np.block([[eye(m), zeros(m, na), P], [R, eye(na), Q], [zeros(nb, f.n)]])
        A = -np.block([[S, -S @ adj(R), zeros(m, nb)], [zeros(na, f.n)],
                       [-adj(P), adj(R @ P - Q), eye(nb)]])
        ik = mpmath.mpc(0, k)
        s = -mpmath.inverse(mpmath.matrix((A + ik * B).tolist())) * mpmath.matrix((A - ik * B).tolist())
        s = np.array(s.tolist(), dtype=complex)
    inv = np.argsort(f.perm)
    return s[np.ix_(inv, inv)]


class TestPQRSRouteAccuracy:
    """The route part of the PQRS route's error: the route on a float form against the
    30-digit S(k) of that same form, so the conversion's error does not enter."""

    def test_route_part_against_30_digits(self, corpus):
        cases = corpus[:55]  # the corpus opens with one coupling per rank pair, n <= 5
        assert {(c.n, c.r_a, c.r_b) for c in cases} == {
            (n, r_a, r_b) for n in range(1, 6) for r_a, r_b in admissible_rank_pairs(n)}
        worst = 0.0
        for c in cases:
            f = to_pqrs_form(c)
            for k in (0.1, 1.7, 40.0):
                worst = max(worst, gap(smatrix_pqrs(f, k).entries, pqrs_smatrix_30(f, k)))
        assert worst <= 1e-13

    def test_far_momenta_keep_the_columns_unitary(self, corpus):
        """Each factor k/(k + iw) stays finite at every momentum, so S(k) keeps the
        orthonormality of the split's basis: no momentum is refused."""
        for c in corpus:
            f = to_pqrs_form(c)
            for k in (5e-324, 1e-300, 1e-17, 1e17, 1e300, 1.7e308):
                s = np.asarray(smatrix_pqrs(f, k).entries)
                assert np.max(np.abs((np.abs(s) ** 2).sum(axis=0) - 1.0)) <= 1e-13


class TestRecordKinds:
    """A record of another kind than a function reads raises TypeError naming
    the kind it needs.  The ST and reverse ST records share their fields, so
    without the check each of the four ST functions below returns S off by
    1.43 at k = 1.3 on this coupling, and the others raise AttributeError on
    a missing field."""

    @pytest.mark.parametrize("call, given, needed", [
        (lambda f: smatrix_st(f, 1.3), "reverse-st", "STForm"),
        (lambda f: smatrix_reverse_st(f, 1.3), "st", "ReverseSTForm"),
        (st_to_matrices, "reverse-st", "STForm"),
        (reverse_st_to_matrices, "st", "ReverseSTForm"),
        (lambda f: smatrix_pqrs(f, 1.3), "st", "PQRSForm"),
        (limit_high_k, "st", "PQRSForm"),
        (limit_low_k, "reverse-st", "PQRSForm"),
        (pqrs_to_matrices, "st", "PQRSForm"),
        (lambda f: expand(f, "high-k", 2), "st", "PQRSForm"),
        (to_st_form, "pqrs", "VertexCoupling"),
        (to_reverse_st_form, "projector", "VertexCoupling"),
        (to_pqrs_form, "unitary", "VertexCoupling"),
        (to_projector_form, "st", "VertexCoupling"),
        (to_unitary, "reverse-st", "VertexCoupling"),
        (from_unitary, "projector", "UnitaryForm"),
        (lambda f: smatrix_direct(f, 1.3), "unitary", "VertexCoupling"),
        (lambda f: bc_residual(f, SMatrix(4, 1.3, np.eye(4))), "pqrs", "VertexCoupling"),
        (lambda f: smatrix_projector(f, 1.3), "pqrs", "ProjectorForm"),
        (projector_to_matrices, "unitary", "ProjectorForm"),
    ], ids=["smatrix_st", "smatrix_reverse_st", "st_to_matrices", "reverse_st_to_matrices",
            "smatrix_pqrs", "limit_high_k", "limit_low_k", "pqrs_to_matrices", "expand",
            "to_st_form", "to_reverse_st_form", "to_pqrs_form", "to_projector_form",
            "to_unitary", "from_unitary", "smatrix_direct", "bc_residual", "smatrix_projector",
            "projector_to_matrices"])
    def test_record_of_another_kind_raises_type_error(self, call, given, needed):
        c = random_coupling(4, 3, 2, np.random.default_rng(1))
        f = documents.FORM_KINDS[given].from_coupling(c)
        with pytest.raises(TypeError, match=f"^needs a {needed}, got {type(f).__name__}$"):
            call(f)

    #: each function of a record, and the kinds of record it accepts
    ACCEPTED = {
        "smatrix_direct": (lambda f: smatrix_direct(f, 1.3), {"coupling"}),
        "bc_residual": (lambda f: bc_residual(f, SMatrix(4, 1.3, np.eye(4))), {"coupling"}),
        "smatrix_st": (lambda f: smatrix_st(f, 1.3), {"st"}),
        "smatrix_reverse_st": (lambda f: smatrix_reverse_st(f, 1.3), {"reverse-st"}),
        "smatrix_pqrs": (lambda f: smatrix_pqrs(f, 1.3), {"pqrs"}),
        "smatrix_projector": (lambda f: smatrix_projector(f, 1.3), {"projector"}),
        "limit_high_k": (limit_high_k, {"pqrs"}),
        "limit_low_k": (limit_low_k, {"pqrs"}),
        "expand": (lambda f: expand(f, "high-k", 2), {"pqrs"}),
        **{name: (kind.from_coupling, {"coupling"}) for name, kind in (
            ("to_st_form", documents.FORM_KINDS["st"]),
            ("to_reverse_st_form", documents.FORM_KINDS["reverse-st"]),
            ("to_pqrs_form", documents.FORM_KINDS["pqrs"]),
            ("to_unitary", documents.FORM_KINDS["unitary"]),
            ("to_projector_form", documents.FORM_KINDS["projector"]))},
        **{f"{kind}_to_coupling": (spec.to_coupling, {kind})
           for kind, spec in documents.FORM_KINDS.items()},
        "coupling_to_document": (documents.coupling_to_document, {"coupling"}),
        "form_to_document": (documents.form_to_document, {"coupling", *documents.FORM_KINDS}),
        "as_coupling": (documents.as_coupling, {"coupling", *documents.FORM_KINDS}),
        "uniform_block_pqrs": (uniform_block_pqrs, {"design"}),
        "amplitude_limits": (amplitude_limits, {"design"}),
        "classify_branching": (classify_branching, {"design"}),
        "probability_sweep": (lambda f: probability_sweep(f, [1.0]), {"design"}),
        "render_limits_report": (lambda f: documents.render_limits_report(
            f, amplitude_limits(FIG1_PARAMS), "none", 3.0), {"design"}),
    }

    @pytest.mark.parametrize("name", ACCEPTED)
    def test_every_record_kind_reaches_every_function(self, name):
        """The coupling, each form record and a filter design, passed to each function
        that reads a record: it returns for the kinds it accepts and raises TypeError
        for the others (a form passed to ``coupling_to_document``, or any other record
        to a filter function, raised AttributeError)."""
        call, accepted = self.ACCEPTED[name]
        c = random_coupling(4, 3, 2, np.random.default_rng(1))
        records = {"coupling": c, "design": replace(FIG1_PARAMS),
                   **{kind: spec.from_coupling(c) for kind, spec in documents.FORM_KINDS.items()}}
        for kind, record in records.items():
            if kind in accepted:
                call(record)
                continue
            with pytest.raises(TypeError, match=f"^needs a .*, got {type(record).__name__}$"):
                call(record)


class TestLimits:
    def test_scale_invariant_coupling_is_constant(self, rng):
        c = random_coupling(3, 2, 1, rng)  # m = 0
        f = to_pqrs_form(c)
        hi = limit_high_k(f).entries
        lo = limit_low_k(f).entries
        assert gap(hi, lo) < 1e-10
        for k in (0.1, 1.0, 10.0):
            assert gap(smatrix_pqrs(f, k).entries, hi) < 1e-10

    def test_delta_high_k_approaches_kirchhoff(self):
        c = validate(*delta_pair(2.0))
        f = to_pqrs_form(c)
        hi = limit_high_k(f).entries
        assert gap(hi, np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-12
        assert gap(hi, smatrix_direct(c, 1e6).entries) < 1e-5

    def test_delta_low_k_total_reflection(self):
        c = validate(*delta_pair(2.0))
        f = to_pqrs_form(c)
        lo = limit_low_k(f).entries
        assert gap(lo, -np.eye(2)) < 1e-12
        assert gap(lo, smatrix_direct(c, 1e-6).entries) < 1e-5

    def test_singular_s_block_raises_by_default(self):
        f = uniform_block_pqrs(FIG1_PARAMS)
        with pytest.raises(SingularSBlock):
            limit_low_k(f)

    def test_singular_s_block_exact_limit(self):
        from qgvertex import pqrs_to_matrices

        f = uniform_block_pqrs(FIG1_PARAMS)
        lo = limit_low_k(f, allow_singular=True).entries
        c = pqrs_to_matrices(f)
        assert gap(lo, smatrix_direct(c, 1e-6).entries) < 1e-5

    def test_random_corpus_limits(self, rng):
        for _ in range(10):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            f = to_pqrs_form(c)
            assert gap(limit_high_k(f).entries, smatrix_direct(c, 1e6).entries) < 1e-5
            assert gap(limit_low_k(f).entries, smatrix_direct(c, 1e-6).entries) < 1e-5

    def test_no_rank_svd_after_validate(self, corpus, monkeypatch):
        """The k -> 0 rank of S is read off the split, with no SVD of S."""
        designs = [FilterParams(n, r_a, r_b, 1.3, -0.4, 0.7, 0.9 if r_a + r_b > n else 0.0)
                   for n in range(1, 6) for r_a, r_b in admissible_rank_pairs(n)]
        fresh = [replace(c) for c in corpus]  # the shared corpus records may be split already
        pqrs = [to_pqrs_form(c) for c in fresh] + [uniform_block_pqrs(fp) for fp in designs]
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
        for f in pqrs:
            limit_high_k(f)
            limit_low_k(f, allow_singular=True)
            expand(f, "high-k", 2)
            with suppress(SingularSBlock):
                limit_low_k(f)
            with suppress(SingularSBlock):
                expand(f, "low-k", 2)
        for fp in designs:
            amplitude_limits(fp)  # classify_branching skips it for a design with an empty block
            classify_branching(fp)
        assert calls == []


def route_results(c, ks=(0.1, 1.0, 10.0)):
    """Both limits (exact for singular S) and all five routes at ``ks``."""
    st, rst, pqrs, proj = (to_st_form(c), to_reverse_st_form(c), to_pqrs_form(c),
                           to_projector_form(c))
    results = [limit_high_k(pqrs), limit_low_k(pqrs, allow_singular=True)]
    for k in ks:
        results += [smatrix_direct(c, k), smatrix_st(st, k), smatrix_reverse_st(rst, k),
                    smatrix_pqrs(pqrs, k), smatrix_projector(proj, k)]
    return [np.asarray(s.entries) for s in results]


class TestEdgeRelabelling:
    def test_results_follow_relabelling(self, corpus):
        # edge i of the relabelled vertex is edge order[i]: (A, B) -> (A Pi^T, B Pi^T)
        # with Pi[i, order[i]] = 1, and every S(k) and limit goes to Pi S Pi^T
        gen = np.random.default_rng(20260901)
        for c in corpus:
            order = gen.permutation(c.n)
            relabelled = validate(np.asarray(c.A)[:, order], np.asarray(c.B)[:, order])
            assert (relabelled.r_a, relabelled.r_b) == (c.r_a, c.r_b)
            for s, s_relabelled in zip(route_results(c), route_results(relabelled)):
                assert gap(s_relabelled, s[np.ix_(order, order)]) <= 1e-12


def reference_expansion(f, kind, order):
    """Coefficients and spectral radius from the closed forms

        high-k:  C_j = 2 X [(X*X)^{-1} S]^j (X*X)^{-1} X*
        low-k:   C_j = -2 X (S^{-1} X*X)^{j-1} S^{-1} X*

    with C_0 = I - 2 Y (Y*Y)^{-1} Y* (high-k) or -I + 2 Z (Z*Z)^{-1} Z*
    (low-k), in the original numbering.
    """
    eye = np.eye(f.n)
    S = np.asarray(f.S)
    m, na, nb = f.block_sizes
    P, Q, R = (np.asarray(b) for b in (f.P, f.Q, f.R))
    Y = np.vstack([-P, R @ P - Q, np.eye(nb)])
    Z = np.vstack([R.conj().T, np.eye(na), Q.conj().T])
    left = build_x(f)
    if kind == "high-k":
        limit = eye - 2.0 * Y @ np.linalg.solve(Y.conj().T @ Y, Y.conj().T)
    else:
        limit = -eye + 2.0 * Z @ np.linalg.solve(Z.conj().T @ Z, Z.conj().T)
    gram = left.conj().T @ left
    if kind == "high-k":
        step = np.linalg.solve(gram, S)
        tail = np.linalg.solve(gram, left.conj().T)
        coeffs = [limit] + [2.0 * left @ np.linalg.matrix_power(step, j) @ tail
                            for j in range(1, order + 1)]
    else:
        s_inv = np.linalg.inv(S)
        step = s_inv @ gram
        coeffs = [limit] + [-2.0 * left @ np.linalg.matrix_power(step, j - 1) @ s_inv
                            @ left.conj().T for j in range(1, order + 1)]
    radius = float(np.max(np.abs(np.linalg.eigvals(step)))) if step.size else 0.0
    inv = linalg.inverse_permutation(f.perm)
    return [c[np.ix_(inv, inv)] for c in coeffs], radius


class TestExpansion:
    def test_matches_closed_forms_on_corpus(self, corpus):
        for c in corpus:
            f = to_pqrs_form(c)
            for kind in ("high-k", "low-k"):
                series = expand(f, kind, 3)
                coeffs, radius = reference_expansion(f, kind, 3)
                for got, want in zip(series.coefficients, coeffs):
                    assert gap(got, want) <= 1e-12 * max(1.0, linalg.max_norm(want))
                assert abs(series.spectral_radius - radius) <= 1e-12 * max(1.0, radius)

    def test_order_zero_is_the_limit(self):
        f = to_pqrs_form(validate(*delta_pair(2.0)))
        high = expand(f, "high-k", 0)
        low = expand(f, "low-k", 0)
        assert gap(high.coefficients[0], limit_high_k(f).entries) < 1e-12
        assert gap(low.coefficients[0], limit_low_k(f).entries) < 1e-12

    def test_delta_high_k_accuracy(self):
        c = validate(*delta_pair(2.0))
        series = expand(to_pqrs_form(c), "high-k", 2)
        err = gap(series.evaluate(100.0), smatrix_direct(c, 100.0).entries)
        assert err < 5e-6

    def test_truncation_error_order(self):
        c = validate(*delta_pair(2.0))
        f = to_pqrs_form(c)
        ks = np.logspace(2, 4, 7)
        for order in (0, 1, 2):
            series = expand(f, "high-k", order)
            errs = [gap(series.evaluate(k), smatrix_direct(c, k).entries) for k in ks]
            slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
            assert abs(slope + (order + 1)) < 0.1

    def test_low_k_leading_coefficient_matches_slope(self):
        # finite-difference slope of S(k) at small k approximates C_1
        c = validate(*delta_pair(2.0))
        f = to_pqrs_form(c)
        series = expand(f, "low-k", 1)
        k = 1e-5
        fd = (np.asarray(smatrix_direct(c, k).entries) - series.coefficients[0]) / (1j * k)
        assert gap(fd, series.coefficients[1]) < 1e-4

    def test_low_k_needs_regular_s(self):
        f = uniform_block_pqrs(FIG1_PARAMS)
        with pytest.raises(SingularSBlock):
            expand(f, "low-k", 1)

    def test_divergence_warning(self):
        # spectral radius for the delta coupling with alpha=2 equals 1
        f = to_pqrs_form(validate(*delta_pair(2.0)))
        series = expand(f, "high-k", 2)
        assert abs(series.spectral_radius - 1.0) < 1e-12
        with pytest.warns(SeriesDivergence):
            series.evaluate(0.5)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series.evaluate(2.0)
        low = expand(f, "low-k", 2)  # converges for k < 1
        assert abs(low.spectral_radius - 1.0) < 1e-12
        assert low.converges_at(0.5) and not low.converges_at(2.0)
        with pytest.warns(SeriesDivergence):
            low.evaluate(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low.evaluate(0.5)

    @pytest.mark.parametrize("kind, k", [("high-k", 1e-150), ("low-k", 1e200),
                                         ("high-k", 2.5e-103), ("low-k", 4e102)])
    def test_overflowing_terms_raise_a_typed_error(self, kind, k):
        """(1/ik)^3 at k = 1e-150 and (ik)^3 at k = 1e200 overflow a Python complex power,
        which raised a bare OverflowError; at 2.5e-103 and 4e102 the power is finite and
        its product with C_3 overflows, which returned an infinite sum."""
        series = expand(to_pqrs_form(random_coupling(3, 3, 3, np.random.default_rng(2))), kind, 3)
        with pytest.warns(SeriesDivergence), pytest.raises(
                ValueError, match=re.escape(f"{kind} series of order 3 overflows at k={k:g}")):
            series.evaluate(k)

    @pytest.mark.parametrize("kind, order, scale_a, scale_b", [
        ("high-k", 2, 1e100, 1e-100), ("low-k", 1, 1e-160, 1e160)])
    def test_overflowing_coefficients_raise_a_typed_error(self, kind, order, scale_a, scale_b):
        """w^2 with |w| = 1.4e200 and 1/w with w = 5.4e-321 overflow; expand warned and
        returned an infinite or NaN coefficient."""
        c = random_coupling(2, 2, 2, np.random.default_rng(0))
        f = to_pqrs_form(validate(scale_a * np.asarray(c.A), scale_b * np.asarray(c.B)))
        message = f"{kind} series of order {order} overflows: a coefficient is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            expand(f, kind, order)

    def test_bad_arguments(self):
        f = to_pqrs_form(validate(*delta_pair(2.0)))
        with pytest.raises(ValueError):
            expand(f, "sideways", 1)
        with pytest.raises(ValueError):
            expand(f, "high-k", -1)


class TestPhysicalConsistency:
    def test_dirichlet_residual_exactly_zero(self):
        c = dirichlet(2)
        assert bc_residual(c, smatrix_direct(c, 1.0)) == 0.0

    def test_neumann_residual(self):
        c = neumann(2)
        assert bc_residual(c, smatrix_direct(c, 1.0)) < 1e-15

    def test_random_residuals(self, rng):
        for _ in range(20):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            assert bc_residual(c, smatrix_direct(c, 1.0)) < 1e-10

    def test_scattering_solution_satisfies_bc(self, rng):
        # psi = (I + S) e_j and psi' = ik (S - I) e_j solve A psi + B psi' = 0
        c = random_coupling(4, rng=rng)
        s = np.asarray(smatrix_direct(c, 2.0).entries)
        eye = np.eye(4)
        for edge in range(4):
            psi = (eye + s)[:, edge]
            dpsi = 2.0j * (s - eye)[:, edge]
            res = np.asarray(c.A) @ psi + np.asarray(c.B) @ dpsi
            assert np.max(np.abs(res)) < 1e-12


class TestUniformSingularS:
    # uniform-block S blocks are s times the all-ones matrix: rank one, so
    # for m >= 2 the kernel has m - 1 directions
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("p, q, r, s", [(2.5, 1.2, 0.0, 3.0), (0.0, 1.2, 2.1, 0.2),
                                            (-1.3, 0.4, 0.9, -1.7)])
    def test_low_k_limit_with_singular_s(self, m, p, q, r, s):
        from qgvertex import pqrs_to_matrices

        f = uniform_block_pqrs(FilterParams(n=m + 3, r_a=m + 1, r_b=m + 2,
                                            p=p, q=q, r=r, s=s))
        assert f.block_sizes == (m, 2, 1)
        c = pqrs_to_matrices(f)
        lo = limit_low_k(f, allow_singular=True).entries
        assert gap(lo, smatrix_direct(c, 1e-7).entries) < 1e-5
        if m == 1:
            assert gap(limit_low_k(f).entries, lo) == 0.0
            expand(f, "low-k", 1)
        else:
            with pytest.raises(SingularSBlock):
                limit_low_k(f)
            with pytest.raises(SingularSBlock):
                expand(f, "low-k", 1)

    def test_pqrs_route_handles_singular_s(self):
        from qgvertex import pqrs_to_matrices

        f = uniform_block_pqrs(FIG1_PARAMS)
        c = pqrs_to_matrices(f)
        for k in (0.1, 1.0, 10.0):
            assert gap(smatrix_pqrs(f, k).entries, smatrix_direct(c, k).entries) < 1e-10

    def test_declared_ranks_drop_for_singular_s(self):
        from qgvertex import pqrs_to_matrices

        c = pqrs_to_matrices(uniform_block_pqrs(FIG1_PARAMS))
        assert (c.r_a, c.r_b) == (2, 4)  # rank-one S loses one unit of rank(A)

    def test_regular_uniform_design_roundtrips(self):
        from qgvertex import pqrs_to_matrices

        fp = FilterParams(n=3, r_a=2, r_b=2, p=1.5, q=0.7, r=0.4, s=2.0)  # m = 1, regular
        f = uniform_block_pqrs(fp)
        c = pqrs_to_matrices(f)
        assert (c.r_a, c.r_b) == (2, 2)
        f2 = to_pqrs_form(c)
        assert f2.perm == f.perm
        for name in ("P", "Q", "R", "S"):
            assert gap(getattr(f2, name), getattr(f, name)) < 1e-10
