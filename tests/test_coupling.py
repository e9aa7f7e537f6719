"""Tests for coupling validation and the unitary description."""

import numpy as np
import pytest

from qgvertex import (
    from_unitary,
    haar_unitary,
    linalg,
    pqrs_to_matrices,
    random_coupling,
    smatrix_direct,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    to_unitary,
    uniform_block_pqrs,
    validate,
)
from qgvertex.coupling import UnitaryForm, _smatrix_grid
from qgvertex.filters import FIG1_PARAMS, pair_sweep
from qgvertex.errors import (NonFiniteMatrix, NotSelfAdjoint, NotUnitary, RankDeficient,
                             ShapeMismatch)

from conftest import smatrix_distance

KIRCHHOFF2_A = np.array([[1.0, -1.0], [0.0, 0.0]])
KIRCHHOFF2_B = np.array([[0.0, 0.0], [1.0, 1.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def float_limit_pair(c, top: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of ``c`` times one real factor that takes their largest real or imaginary
    part to ``top``."""
    A, B = np.asarray(c.A), np.asarray(c.B)
    factor = top / linalg.largest_part(np.concatenate([A, B], axis=1))
    return factor * A, factor * B


def delta_pair(alpha, n=2):
    """Continuity of psi plus sum of derivatives equal to alpha * psi_1."""
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        a[i, i], a[i, i + 1] = 1.0, -1.0
    a[n - 1, 0] = -alpha
    b[n - 1, :] = 1.0
    return a, b


class TestValidate:
    def test_dirichlet(self):
        c = validate(np.eye(2), np.zeros((2, 2)))
        assert (c.n, c.r_a, c.r_b) == (2, 2, 0)

    def test_neumann(self):
        c = validate(np.zeros((2, 2)), np.eye(2))
        assert (c.n, c.r_a, c.r_b) == (2, 0, 2)

    def test_not_self_adjoint(self):
        with pytest.raises(NotSelfAdjoint):
            validate(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_rank_deficient(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(RankDeficient):
            validate(m, m)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate(np.eye(2), np.eye(3))
        with pytest.raises(ShapeMismatch):
            validate(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("name", ["A", "B"])
    def test_non_finite_entry(self, name, value):
        pair = dict(zip("AB", delta_pair(2.0)))
        pair[name][1, 0] = value
        with pytest.raises(NonFiniteMatrix, match=f"^{name} has"):
            validate(pair["A"], pair["B"])

    def test_delta_coupling_ranks(self):
        c = validate(*delta_pair(2.0))
        assert (c.r_a, c.r_b) == (2, 1)

    def test_matrices_are_read_only(self):
        c = validate(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            c.A[0, 0] = 2.0


class TestUnitary:
    def test_dirichlet_gives_minus_identity(self):
        c = validate(np.eye(3), np.zeros((3, 3)))
        assert np.allclose(to_unitary(c).U, -np.eye(3))

    def test_neumann_gives_identity(self):
        c = validate(np.zeros((3, 3)), np.eye(3))
        assert np.allclose(to_unitary(c).U, np.eye(3))

    def test_kirchhoff_two_edges(self):
        # evaluating -(A+iB)^{-1}(A-iB) by hand gives the swap matrix
        c = validate(KIRCHHOFF2_A, KIRCHHOFF2_B)
        assert np.allclose(to_unitary(c).U, SWAP, atol=1e-14)

    def test_from_unitary_dirichlet_class(self):
        c = from_unitary(UnitaryForm(2, -np.eye(2)))
        assert np.allclose(c.A, -2.0 * np.eye(2))
        assert np.allclose(c.B, np.zeros((2, 2)))
        assert c.r_b == 0

    def test_from_unitary_neumann_class(self):
        c = from_unitary(UnitaryForm(2, np.eye(2)))
        assert np.allclose(c.A, np.zeros((2, 2)))
        assert np.allclose(c.B, 2j * np.eye(2))
        assert c.r_a == 0

    def test_swap_matches_kirchhoff_on_k_grid(self):
        c1 = from_unitary(UnitaryForm(2, SWAP))
        c2 = validate(KIRCHHOFF2_A, KIRCHHOFF2_B)
        assert smatrix_distance(c1, c2) < 1e-12

    def test_not_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            from_unitary(UnitaryForm(2, np.array([[1.0, 1.0], [0.0, 1.0]])))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, 0.0)])
    def test_from_unitary_rejects_non_finite_entry(self, value):
        u = SWAP.astype(complex)
        u[0, 1] = value
        with pytest.raises(NonFiniteMatrix, match="^U has"):
            from_unitary(UnitaryForm(2, u))

    def test_unitary_form_checks_its_layout_at_construction(self):
        with pytest.raises(ShapeMismatch, match=r"^block U has shape \(2, 2\), expected \(3, 3\)$"):
            from_unitary(UnitaryForm(n=3, U=np.eye(2)))
        with pytest.raises(NonFiniteMatrix, match="^U has a NaN or infinite entry$"):
            UnitaryForm(n=2, U=np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_roundtrip_preserves_scattering(self, rng):
        for _ in range(10):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            back = from_unitary(to_unitary(c))
            assert smatrix_distance(c, back) < 1e-10

    def test_validate_accepts_every_unitary(self, rng):
        for n in (1, 2, 3, 5):
            for _ in range(5):
                from_unitary(UnitaryForm(n, haar_unitary(n, rng)))  # must not raise


class TestEquivalenceInvariance:
    def test_scalar_rescaling(self, rng):
        c = random_coupling(4, rng=rng)
        z = 0.7 - 1.3j
        scaled = validate(z * np.asarray(c.A), z * np.asarray(c.B))
        assert smatrix_distance(c, scaled) < 1e-10

    def test_left_multiplication(self, rng):
        c = random_coupling(4, rng=rng)
        g = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        moved = validate(g @ np.asarray(c.A), g @ np.asarray(c.B))
        assert smatrix_distance(c, moved) < 1e-9

    def test_verdict_and_ranks_survive_every_scalar_scale(self):
        """The Hermitian test runs on rows scaled to unit norm: A B* neither
        overflows at 1e160 nor falls below the tolerance at 1e-6."""
        c = random_coupling(4, 3, 2, np.random.default_rng(1))
        for exponent in range(-200, 201, 10):
            scaled = validate(10.0 ** exponent * np.asarray(c.A), 10.0 ** exponent * np.asarray(c.B))
            assert (scaled.r_a, scaled.r_b) == (3, 2), exponent

    @pytest.mark.parametrize("ranks, seed, top", [
        ((3, 3, 3), 2, 1.5e308), ((4, None, None), 7, 1.7e308), ((4, None, None), 20, 1.7e308),
        ((4, None, None), 29, 1.7e308)])
    def test_pairs_at_the_float_limit_keep_their_verdict_and_ranks(self, ranks, seed, top):
        """Scaled until their largest real or imaginary part is near the largest float,
        where an entry's modulus overflows: the rank SVD and the row division of the
        Hermitian test used to meet inf, and validate raised RankDeficient.  Every form
        converts, and to_unitary gives the unscaled pair's U."""
        c = random_coupling(*ranks, np.random.default_rng(seed))
        A, B = float_limit_pair(c, top)
        scaled = validate(A, B)
        assert (scaled.r_a, scaled.r_b) == (c.r_a, c.r_b)
        assert linalg.max_norm(to_unitary(scaled).U - to_unitary(c).U) < 1e-12
        for convert in (to_st_form, to_reverse_st_form, to_pqrs_form, to_projector_form):
            assert convert(scaled).n == c.n

    def test_inadmissible_pair_refused_at_every_scale(self):
        gen = np.random.default_rng(3)
        A, B = (gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)) for _ in range(2))
        for exponent in range(-200, 201, 10):
            with pytest.raises(NotSelfAdjoint):
                validate(10.0 ** exponent * A, 10.0 ** exponent * B)

    def test_tolerance_outside_the_unit_interval_is_refused(self):
        for tol in (0.0, 1.0, 2.0, np.nan):
            with pytest.raises(ValueError, match="rank tolerance"):
                validate(*delta_pair(1.0), tol=tol)

    def test_a_plus_ikb_invertible(self, rng):
        for _ in range(10):
            c = random_coupling(int(rng.integers(1, 6)), rng=rng)
            for k in (1e-3, 0.1, 1.0, 10.0, 1e3):
                m = np.asarray(c.A) + 1j * k * np.asarray(c.B)
                s = np.linalg.svd(m, compute_uv=False)
                assert s[-1] > 1e-12 * s[0]


class TestEigensplit:
    def test_multiplicities_match_ranks(self, rng):
        c = random_coupling(5, 3, 4, rng)
        vals = np.linalg.eigvals(to_unitary(c).U)
        near_minus = np.abs(vals + 1.0) <= 1e-8
        near_plus = np.abs(vals - 1.0) <= 1e-8
        rest = ~(near_minus | near_plus)
        assert np.count_nonzero(near_minus) == c.n - c.r_b
        assert np.count_nonzero(near_plus) == c.n - c.r_a
        assert np.count_nonzero(rest) == c.r_a + c.r_b - c.n
        assert np.all(np.abs(np.abs(vals[rest]) - 1.0) < 1e-10)


def far_scale_coupling():
    """A coupling whose S(k) loses unitarity far from its own scale: a column of
    |S(k)|^2 misses 1 by 1.6e-8 at k = 1e8, 1.4e-2 at 1e14 and 0.81 at 1e-17."""
    return random_coupling(3, 2, 2, np.random.default_rng(1))


class TestUnitarityGuard:
    """S(k) is refused, not returned, once a column of |S(k)|^2 misses 1 by more
    than ``linalg.SMATRIX_ATOL``."""

    @pytest.mark.parametrize("k", [1e-14, 1e14])
    def test_far_momenta_raise(self, k):
        c = far_scale_coupling()
        with pytest.raises(ValueError, match=r"not finite or not unitary .* misses 1 by"):
            smatrix_direct(c, k)
        with pytest.raises(ValueError, match=r"not finite or not unitary .* misses 1 by"):
            pair_sweep(c.A, c.B, np.sort([1.0, k]), None)

    def test_exactly_singular_a_plus_ikb_raises_the_guard(self):
        """k B underflows to zero beside a singular A, and the solve itself refuses the
        matrix: the error is the guard's, for the n x n solve and for the quotient."""
        message = r"not finite or not unitary .* A \+ ikB is numerically singular"
        with pytest.raises(ValueError, match=message):
            _smatrix_grid(np.diag([1.0, 0.0]), np.diag([0.0, 1e-300]), np.array([1e-300]))
        fig1 = pqrs_to_matrices(uniform_block_pqrs(FIG1_PARAMS))
        with pytest.raises(ValueError, match=message):
            pair_sweep(fig1.A, 1e-300 * fig1.B, np.array([1e-300, 1e-17]), (2, 2, 1))

    def test_momenta_near_the_scale_pass(self):
        c = far_scale_coupling()
        ks = np.logspace(-8, 8, 33)
        probs = pair_sweep(c.A, c.B, ks, None).probabilities
        assert np.max(np.abs(probs.sum(axis=-2) - 1.0)) <= linalg.SMATRIX_ATOL
