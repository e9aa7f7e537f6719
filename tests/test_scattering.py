"""Tests for the scattering routes, limits and expansions."""

import numpy as np
import pytest

from qgvertex import (
    bc_residual,
    expand,
    limit_high_k,
    limit_low_k,
    linalg,
    random_coupling,
    smatrix_direct,
    smatrix_pqrs,
    smatrix_projector,
    smatrix_reverse_st,
    smatrix_st,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    uniform_block_pqrs,
    validate,
)
from qgvertex.errors import SeriesDivergence, SingularSBlock
from qgvertex.filters import FIG1_PARAMS, FilterParams
from qgvertex.forms import ProjectorForm, STForm, _split_factors

from conftest import unitarity_defect
from test_coupling import delta_pair

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
    """Gap between Q_x Q_x* of the split's QR and X (X*X)^{-1} X* of ``build_x``."""
    _, qx, _ = _split_factors(f)
    x = build_x(f)
    return gap(qx @ qx.conj().T, x @ np.linalg.solve(x.conj().T @ x, x.conj().T))


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
        c = dirichlet(2)
        for bad in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                smatrix_direct(c, bad)

    def test_unitary_for_random_couplings(self, rng):
        for _ in range(10):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            for k in np.logspace(-3, 3, 7):
                assert unitarity_defect(smatrix_direct(c, k).entries) < 1e-10


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
    """The split's Q_x spans the paper's X: the PQRS route reads X off it."""

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

        high-k:  C_j = 2 X [(X*X)^{-1} S]^j (X*X)^{-1} X*, or L = (I; T*) for X
        low-k:   C_j = -2 X (S^{-1} X*X)^{j-1} S^{-1} X*

    with C_0 = I - 2 Y (Y*Y)^{-1} Y* (high-k, PQRS), -I + 2 L (L*L)^{-1} L*
    (high-k, ST) or -I + 2 Z (Z*Z)^{-1} Z* (low-k), in the original numbering.
    """
    eye = np.eye(f.n)
    S = np.asarray(f.S)
    if isinstance(f, STForm):
        left = np.vstack([np.eye(f.r_b), np.asarray(f.T).conj().T])
        limit = -eye + 2.0 * left @ np.linalg.solve(left.conj().T @ left, left.conj().T)
    else:
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
            cases = [(to_st_form(c), "high-k")]
            cases += [(to_pqrs_form(c), kind) for kind in ("high-k", "low-k")]
            for f, kind in cases:
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

    def test_st_form_high_k_matches_pqrs(self):
        c = validate(*delta_pair(2.0))
        s1 = expand(to_st_form(c), "high-k", 2)
        s2 = expand(to_pqrs_form(c), "high-k", 2)
        assert gap(s1.evaluate(50.0), s2.evaluate(50.0)) < 1e-12

    def test_st_form_has_no_low_k(self):
        with pytest.raises(ValueError):
            expand(to_st_form(validate(*delta_pair(2.0))), "low-k", 1)

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
