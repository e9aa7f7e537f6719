"""Tests for uniform-block designs and branching classification."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from qgvertex import (
    PQRSForm,
    admissible_rank_pairs,
    amplitude_limits,
    classify_branching,
    limit_high_k,
    limit_low_k,
    pqrs_to_matrices,
    probability_sweep,
    random_coupling,
    scattering,
    smatrix_direct,
    smatrix_pqrs,
    uniform_block_pqrs,
    validate,
)
from qgvertex.cli import main
from qgvertex.coupling import _smatrix_grid
from qgvertex.errors import InvalidShape, ShapeMismatch, SingularMatrix, SingularSBlock
from qgvertex.filters import (
    DELTA_DELTA_DELTAPRIME,
    DELTA_DELTAPRIME_DELTAPRIME,
    FIG1_PARAMS,
    FIG2_PARAMS,
    NO_BRANCHING,
    PRESETS,
    SWEEP_BLOCK,
    FilterParams,
    _orbit_members,
    _quotient_sweep,
    pair_sweep,
)

from conftest import block_means, grid_table, unitarity_defect


def csv_rows(table) -> np.ndarray:
    """The table's CSV rows: each block of ``rows()`` gathered through the orbit map."""
    return np.concatenate([block[:, table.columns] for block in table.rows()])


class TestFilterParams:
    def test_preset_block_sizes(self):
        assert FIG1_PARAMS.block_sizes == (2, 2, 1)
        assert FIG2_PARAMS.block_sizes == (2, 2, 1)

    def test_invalid_ranks(self):
        with pytest.raises(InvalidShape):
            FilterParams(n=3, r_a=1, r_b=1, p=0.0, q=0.0, r=0.0, s=1.0)
        with pytest.raises(InvalidShape):
            FilterParams(n=3, r_a=4, r_b=3, p=0.0, q=0.0, r=0.0, s=1.0)

    def test_zero_s_with_nonempty_block(self):
        with pytest.raises(SingularSBlock):
            FilterParams(n=2, r_a=2, r_b=1, p=1.0, q=0.0, r=0.0, s=0.0)

    def test_zero_s_allowed_when_block_empty(self):
        fp = FilterParams(n=3, r_a=2, r_b=1, p=0.5, q=0.5, r=0.5, s=0.0)
        assert fp.block_sizes[0] == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_constants_rejected(self, bad):
        for field in ("p", "q", "r", "s"):
            values = {"p": 2.5, "q": 1.2, "r": 0.0, "s": 3.0, field: bad}
            with pytest.raises(ValueError):
                FilterParams(n=5, r_a=3, r_b=4, **values)

    @pytest.mark.parametrize("fp, error, match", [
        # W = (I; 0; P*) has columns that agree to rounding; these used to raise a
        # bare LinAlgError, or OverflowError from p**2 where the split went through
        (FilterParams(5, 3, 4, p=1e150, q=1.0, r=1.0, s=1.0), SingularMatrix, "numerically rank-deficient"),
        (FilterParams(5, 3, 4, p=1e160, q=1.0, r=1.0, s=1.0), SingularMatrix, "numerically rank-deficient"),
        (FilterParams(5, 3, 4, p=1e200, q=1.0, r=1.0, s=1.0), SingularMatrix, "numerically rank-deficient"),
        # the split is fine, but q**2 overflows (it used to raise OverflowError)
        (FilterParams(5, 3, 4, p=1.0, q=1e200, r=1.0, s=1.0), ValueError, "closed-form limit amplitudes overflow"),
        # no power overflows, but l_q q**2 turns inf (it used to give closed forms 0)
        (FilterParams(5, 3, 4, p=1.0, q=1.3e154, r=1.0, s=1.0), ValueError, "closed-form limit amplitudes overflow"),
    ])
    def test_constants_near_float_overflow_raise_typed_errors(self, fp, error, match):
        for call in (amplitude_limits, classify_branching):
            with pytest.raises(error, match=match):
                call(fp)


class TestUniformBlocks:
    def test_fig1_blocks(self):
        f = uniform_block_pqrs(FIG1_PARAMS)
        assert f.P.shape == (2, 1) and np.allclose(f.P, 2.5)
        assert f.Q.shape == (2, 1) and np.allclose(f.Q, 1.2)
        assert f.R.shape == (2, 2) and np.allclose(f.R, 0.0)
        assert f.S.shape == (2, 2) and np.allclose(f.S, 3.0)
        pqrs_to_matrices(f)  # admissible by construction

    def test_fig2_blocks(self):
        f = uniform_block_pqrs(FIG2_PARAMS)
        assert np.allclose(f.P, 0.0) and np.allclose(f.Q, 1.2)
        assert np.allclose(f.R, 2.1) and np.allclose(f.S, 0.2)
        pqrs_to_matrices(f)

    def test_decoupled_blocks_give_block_diagonal_s(self):
        fp = FilterParams(n=5, r_a=3, r_b=4, p=0.0, q=0.0, r=0.0, s=3.0)
        f = uniform_block_pqrs(fp)
        s = np.asarray(smatrix_pqrs(f, 1.3).entries)
        m, na, nb = fp.block_sizes
        off = np.ones((5, 5), dtype=bool)
        off[:m, :m] = False
        off[m:m + na, m:m + na] = False
        off[m + na:, m + na:] = False
        assert np.max(np.abs(s[off])) < 1e-12


class TestAmplitudeLimits:
    def test_zero_r_kills_low_k_cross_terms(self):
        limits = amplitude_limits(FIG1_PARAMS)  # r = 0
        assert limits.low_k[(1, 2)] < 1e-14
        assert limits.low_k[(3, 1)] < 1e-14
        assert limits.closed_form_low[(1, 2)] == 0.0
        assert limits.closed_form_low[(3, 1)] == 0.0

    def test_fig1_closed_forms_match_matrix_limits(self):
        limits = amplitude_limits(FIG1_PARAMS)
        assert limits.mismatches == ()
        assert (limits.l_p, limits.l_q, limits.l_r) == (2, 2, 4)
        for pair, value in limits.closed_form_high.items():
            assert abs(value - limits.high_k[pair]) < 1e-12
        for pair, value in limits.closed_form_low.items():
            assert abs(value - limits.low_k[pair]) < 1e-12

    def test_fig2_closed_forms_match_matrix_limits(self):
        limits = amplitude_limits(FIG2_PARAMS)
        assert limits.mismatches == ()

    def test_magnitudes_within_unit_interval(self):
        for fp in (FIG1_PARAMS, FIG2_PARAMS):
            limits = amplitude_limits(fp)
            for table in (limits.high_k, limits.low_k,
                          limits.high_k_reflection, limits.low_k_reflection,
                          limits.high_k_intra, limits.low_k_intra):
                for value in table.values():
                    assert -1e-12 <= value <= 1.0 + 1e-12

    def test_within_block_uniformity_at_limits(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            pairs = [(ra, rb) for ra in range(n + 1) for rb in range(n + 1) if ra + rb >= n]
            r_a, r_b = pairs[rng.integers(len(pairs))]
            m = r_a + r_b - n
            fp = FilterParams(n=n, r_a=r_a, r_b=r_b,
                              p=float(rng.uniform(-2, 2)), q=float(rng.uniform(-2, 2)),
                              r=float(rng.uniform(-2, 2)),
                              s=float(rng.uniform(0.5, 3.0)) if m else 0.0)
            form = uniform_block_pqrs(fp)
            hi = np.abs(np.asarray(limit_high_k(form).entries))
            lo = np.abs(np.asarray(limit_low_k(form, allow_singular=True).entries))
            sizes = fp.block_sizes
            edges = np.cumsum((0,) + sizes)
            for mu in range(3):
                for nu in range(3):
                    if sizes[mu] == 0 or sizes[nu] == 0:
                        continue
                    for mat in (hi, lo):
                        blk = mat[edges[mu]:edges[mu + 1], edges[nu]:edges[nu + 1]]
                        if mu == nu:
                            d = np.diagonal(blk)
                            assert np.max(d) - np.min(d) < 1e-10
                            if sizes[mu] > 1:
                                off = blk[~np.eye(sizes[mu], dtype=bool)]
                                assert np.max(off) - np.min(off) < 1e-10
                        else:
                            assert np.max(blk) - np.min(blk) < 1e-10

    def test_closed_forms_match_over_random_designs(self, rng):
        count = 0
        while count < 200:
            n = int(rng.integers(1, 7))
            pairs = [(ra, rb) for ra in range(n + 1) for rb in range(n + 1) if ra + rb >= n]
            r_a, r_b = pairs[rng.integers(len(pairs))]
            m = r_a + r_b - n
            fp = FilterParams(n=n, r_a=r_a, r_b=r_b,
                              p=float(rng.uniform(-3, 3)), q=float(rng.uniform(-3, 3)),
                              r=float(rng.uniform(-3, 3)),
                              s=float(rng.choice([-1, 1]) * rng.uniform(0.2, 3.0)) if m else 0.0)
            limits = amplitude_limits(fp)
            assert limits.mismatches == (), (fp, limits.mismatches)
            count += 1


class TestClassification:
    def test_fig1_is_delta_delta_deltaprime(self):
        assert classify_branching(FIG1_PARAMS, 3.0) == DELTA_DELTA_DELTAPRIME

    def test_fig2_is_delta_deltaprime_deltaprime(self):
        assert classify_branching(FIG2_PARAMS, 3.0) == DELTA_DELTAPRIME_DELTAPRIME

    def test_all_zero_constants(self):
        fp = FilterParams(n=5, r_a=3, r_b=4, p=0.0, q=0.0, r=0.0, s=1.0)
        assert classify_branching(fp, 3.0) == NO_BRANCHING

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            classify_branching(FIG1_PARAMS, 1.0)

    def test_nan_threshold_is_refused(self, capsys):
        # NaN passes a threshold <= 1 test, and the CLI printed "none" and exited 0
        with pytest.raises(ValueError, match="^dominance threshold must exceed 1, got nan$"):
            classify_branching(FIG1_PARAMS, float("nan"))
        assert main(["filter-demo", "--preset", "fig1", "--threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the design document is not printed either
        assert captured.err == "error: dominance threshold must exceed 1, got nan\n"

    def test_empty_block_designs_are_unlabeled(self):
        fp = FilterParams(n=3, r_a=3, r_b=3, p=1.0, q=1.0, r=1.0, s=1.0)
        assert classify_branching(fp) == NO_BRANCHING


class TestOneSplit:
    def test_amplitude_limits_match_the_separate_limits(self):
        """Both limit tables come from one split and equal the two public limits bit for bit."""
        for n in range(1, 5):
            for r_a in range(n + 1):
                for r_b in range(n - r_a, n + 1):
                    m = r_a + r_b - n
                    fp = FilterParams(n, r_a, r_b, 1.3, -0.4, 0.7, 0.9 if m else 0.0)
                    form = uniform_block_pqrs(fp)
                    hi = np.abs(np.asarray(limit_high_k(form).entries))
                    lo = np.abs(np.asarray(limit_low_k(form, allow_singular=True).entries))
                    limits = amplitude_limits(fp)
                    means = block_means(np.stack([hi, lo]), fp.block_sizes)
                    for (mu, nu, kind), (high, low) in means.items():
                        key = (mu, nu) if mu != nu else mu
                        table = {"": "", "_refl": "_reflection", "_intra": "_intra"}[kind]
                        assert getattr(limits, "high_k" + table)[key] == float(high)
                        assert getattr(limits, "low_k" + table)[key] == float(low)

    def test_each_limit_builds_only_its_matrix(self, monkeypatch, computed_splits):
        built = []
        limit_matrix = scattering._limit_matrix
        monkeypatch.setattr(scattering, "_limit_matrix",
                            lambda *args: built.append(args) or limit_matrix(*args))
        for call, matrices in ((lambda fp: limit_high_k(uniform_block_pqrs(fp)), 1),
                               (lambda fp: limit_low_k(uniform_block_pqrs(fp), allow_singular=True), 1),
                               (amplitude_limits, 2)):
            built.clear()
            computed_splits.clear()
            call(replace(FIG1_PARAMS))  # FIG1_PARAMS keeps its split form once computed
            assert (len(built), len(computed_splits)) == (matrices, 1)

    def test_filter_demo_splits_once(self, capsys, monkeypatch, computed_splits):
        monkeypatch.setitem(PRESETS, "fig1", replace(FIG1_PARAMS))
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        assert "delta-delta-deltaprime" in capsys.readouterr().err
        assert len(computed_splits) == 1


class TestOncePerDesign:
    """A design record is immutable, so it builds its PQRS form once, and the
    form's one split serves every limit of the design."""

    def test_design_builds_and_splits_its_form_once(self, computed_splits):
        fp = replace(FIG1_PARAMS)
        form = uniform_block_pqrs(fp)
        assert classify_branching(fp) == DELTA_DELTA_DELTAPRIME
        amplitude_limits(fp)
        probability_sweep(fp, np.logspace(-1, 1, 5))
        with pytest.raises(SingularSBlock):
            limit_low_k(uniform_block_pqrs(fp))
        assert uniform_block_pqrs(fp) is form and computed_splits == [form]

    def test_replaced_design_builds_its_own_form(self):
        form = uniform_block_pqrs(FIG1_PARAMS)
        fresh = uniform_block_pqrs(replace(FIG1_PARAMS))
        assert fresh is not form
        for name in "PQRS":
            assert np.array_equal(getattr(fresh, name), getattr(form, name))
        assert uniform_block_pqrs(replace(FIG1_PARAMS, s=0.5)).S[0, 0] == 0.5


class TestProbabilitySweep:
    def test_endpoints_approach_limits(self):
        for fp in (FIG1_PARAMS, FIG2_PARAMS):
            limits = amplitude_limits(fp)
            table = probability_sweep(fp, np.logspace(-2, 2, 25))
            first, last = table.probabilities[0], table.probabilities[-1]
            edges = np.cumsum((0,) + fp.block_sizes)
            for (mu, nu), amp in limits.low_k.items():
                blk = first[edges[mu - 1]:edges[mu], edges[nu - 1]:edges[nu]]
                assert np.max(np.abs(blk - amp**2)) < 1e-3
            for (mu, nu), amp in limits.high_k.items():
                blk = last[edges[mu - 1]:edges[mu], edges[nu - 1]:edges[nu]]
                assert np.max(np.abs(blk - amp**2)) < 1e-3
            for mu, amp in limits.low_k_reflection.items():
                diag = np.diagonal(first[edges[mu - 1]:edges[mu], edges[mu - 1]:edges[mu]])
                assert np.max(np.abs(diag - amp**2)) < 1e-3

    def test_every_point_is_unitary(self):
        table = probability_sweep(FIG2_PARAMS, np.logspace(-1, 1, 9))
        for prob in table.probabilities:
            assert np.max(np.abs(prob.sum(axis=1) - 1.0)) < 1e-10

    def test_scale_invariant_design_is_flat(self):
        fp = FilterParams(n=3, r_a=2, r_b=1, p=0.8, q=0.3, r=0.0, s=0.0)  # empty S block
        table = probability_sweep(fp, np.logspace(-2, 2, 7))
        spread = table.probabilities.max(axis=0) - table.probabilities.min(axis=0)
        assert np.max(spread) < 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            probability_sweep(FIG1_PARAMS, [1.0, 0.5])
        with pytest.raises(ValueError):
            probability_sweep(FIG1_PARAMS, [-1.0, 1.0])
        # the positive-and-ascending test is False for NaN, so it needs its own
        for grid in ([1.0, np.nan], [np.nan], [1.0, np.inf]):
            with pytest.raises(ValueError, match=r"^k_grid must be finite$"):
                probability_sweep(FIG1_PARAMS, grid)

    def test_design_that_validate_refuses_raises(self):
        # its rows of |S(k)|^2 summed to up to 2.7e168 at p = 1e100
        ks = np.logspace(-2, 2, 50)
        for p in (1e10, 1e100):
            with pytest.raises(SingularMatrix):
                probability_sweep(FilterParams(5, 3, 4, p=p, q=1, r=1, s=1), ks)
        table = probability_sweep(FilterParams(5, 3, 4, p=1e8, q=1, r=1, s=1), ks)
        assert np.max(np.abs(table.probabilities.sum(axis=-1) - 1.0)) < 1e-9

    def test_pair_sweep_checks_its_grid(self):
        c = pqrs_to_matrices(uniform_block_pqrs(FIG1_PARAMS))
        with pytest.raises(ValueError, match="^k_grid must be strictly positive and ascending$"):
            pair_sweep(c.A, c.B, [2.0, 1.0, -1.0], None)
        with pytest.raises(ValueError, match="^k_grid must be a non-empty 1-d array$"):
            pair_sweep(c.A, c.B, [[1.0, 2.0]], None)

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 3), (2, 2, 1, 0), (3, 3, -1)])
    def test_pair_sweep_block_sizes_must_cover_the_vertex(self, sizes):
        c = pqrs_to_matrices(uniform_block_pqrs(FIG1_PARAMS))
        with pytest.raises(ShapeMismatch, match=r"^block sizes must be three values summing to n=5$"):
            pair_sweep(c.A, c.B, np.array([1.0, 2.0]), sizes)

    def test_pair_sweep_block_sizes_are_integers(self):
        c = pqrs_to_matrices(uniform_block_pqrs(FIG1_PARAMS))
        sizes = pair_sweep(c.A, c.B, np.array([1.0, 2.0]), [np.int64(2), 2, 1]).block_sizes
        assert sizes == (2, 2, 1) and set(map(type, sizes)) == {int}
        with pytest.raises(TypeError):
            pair_sweep(c.A, c.B, np.array([1.0, 2.0]), (1.5, 1.5, 2))

    def test_blocked_sweep_matches_per_k_loop(self):
        ks = np.logspace(-2, 2, 2 * SWEEP_BLOCK + 3)
        for fp in (FIG1_PARAMS, FIG2_PARAMS):
            table = probability_sweep(fp, ks)
            c = pqrs_to_matrices(uniform_block_pqrs(fp))
            loop = np.array([np.abs(np.asarray(smatrix_direct(c, float(k)).entries)) ** 2
                             for k in ks])
            # the batched solve, before the orbit averaging, is the per-k route bit for bit
            for start in range(0, ks.size, SWEEP_BLOCK):
                chunk = slice(start, start + SWEEP_BLOCK)
                raw = np.abs(_smatrix_grid(c.A, c.B, ks[chunk])) ** 2
                assert np.array_equal(raw, loop[chunk])

            header = table.header()
            rows = csv_rows(table)
            assert len(rows) == ks.size
            edges = np.cumsum((0,) + fp.block_sizes)
            for row, prob in zip(rows, loop):
                values = dict(zip(header, row))
                for mu in range(3):
                    for nu in range(3):
                        blk = prob[edges[mu]:edges[mu + 1], edges[nu]:edges[nu + 1]]
                        if mu != nu:
                            expected = {f"b{mu + 1}{nu + 1}": blk.mean()}
                        else:
                            expected = {f"b{mu + 1}{mu + 1}_refl": np.diagonal(blk).mean()}
                            if blk.shape[0] > 1:
                                off = blk[~np.eye(blk.shape[0], dtype=bool)]
                                expected[f"b{mu + 1}{mu + 1}_intra"] = off.mean()
                        for name, mean in expected.items():
                            assert abs(values[name] - mean) < 1e-12

    def test_block_means_keys_match_header_and_limits(self):
        for n in range(1, 6):
            for m in range(n + 1):
                for na in range(n - m + 1):
                    sizes = (m, na, n - m - na)
                    labels = list(block_means(np.zeros((n, n)), sizes))
                    table = grid_table(np.ones(1), np.zeros((1, n, n)), sizes)
                    assert table.header()[1 + n * n:] == [f"b{mu}{nu}{kind}" for mu, nu, kind in labels]
                    fp = FilterParams(n=n, r_a=n - na, r_b=m + na, p=0.7, q=-0.4, r=1.3,
                                      s=1.1 if m else 0.0)
                    limits = amplitude_limits(fp)
                    reported = ({(mu, nu, "") for mu, nu in limits.high_k}
                                | {(mu, mu, "_refl") for mu in limits.high_k_reflection}
                                | {(mu, mu, "_intra") for mu in limits.high_k_intra})
                    assert set(labels) == reported
                    assert limits.high_k.keys() == limits.low_k.keys()
                    assert limits.high_k_reflection.keys() == limits.low_k_reflection.keys()
                    assert limits.high_k_intra.keys() == limits.low_k_intra.keys()
                    assert all(type(v) is int for mu, nu, _ in labels for v in (mu, nu))

    def test_stacked_block_means_equal_single_matrix_means(self, rng):
        # rows() aggregates a stack of momenta at once; each row must sum in
        # the same order as amplitude_limits does for one matrix
        for n in range(1, 8):
            for m in range(n + 1):
                for na in range(n - m + 1):
                    sizes = (m, na, n - m - na)
                    x = rng.random((3, n, n))
                    stacked = block_means(x, sizes)
                    for i in range(3):
                        for name, value in block_means(x[i], sizes).items():
                            assert stacked[name][i] == value, (sizes, name)

    def test_header_matches_rows(self):
        table = probability_sweep(FIG1_PARAMS, np.logspace(-1, 1, 3))
        header = table.header()
        rows = csv_rows(table)
        assert len(rows) == 3
        assert all(len(r) == len(header) for r in rows)
        assert header[0] == "k"
        assert "b12" in header and "b11_refl" in header and "b11_intra" in header
        assert "b33_intra" not in header  # block 3 has one line


def uniform_designs():
    """fig1, fig2 and one seeded design of real uniform blocks per rank pair with n <= 6."""
    gen = np.random.default_rng(22)
    designs = [FIG1_PARAMS, FIG2_PARAMS]
    for n in range(1, 7):
        for r_a, r_b in admissible_rank_pairs(n):
            p, q, r = (float(v) for v in gen.uniform(-3.0, 3.0, size=3))
            s = float(gen.choice([-1.0, 1.0]) * gen.uniform(0.2, 3.0)) if r_a + r_b > n else 0.0
            designs.append(FilterParams(n, r_a, r_b, p, q, r, s))
    return designs


def orbits(sizes, transpose: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, columns) of each orbit of the index pairs under the swaps inside the
    blocks, and transposition when ``transpose``, written out from the group."""
    blk = [mu for mu, size in enumerate(sizes) for _ in range(size)]
    found = {}
    for i, j in np.ndindex(len(blk), len(blk)):
        pair = tuple(sorted((blk[i], blk[j]))) if transpose else (blk[i], blk[j])
        found.setdefault(pair + (i == j,), []).append((i, j))
    return [tuple(np.array(members).T) for members in found.values()]


def block_symmetric_pair(sizes, rng, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """A seeded admissible pair constant on the orbits of the swaps inside the blocks
    ``sizes``: the quotient pair (O cos(t) O*, O sin(t) O*) on the block-constant vectors,
    with about one angle t in three 0, and a scalar pair e^{i psi} (cos phi, sin phi) on
    each block's sum-zero vectors; ``real`` draws O orthogonal and psi = 0.  Each entry is
    read from one table per orbit, so the orbits hold one float each."""
    size = np.array([s for s in sizes if s])
    blk = np.repeat(np.arange(len(size)), size)
    x = rng.standard_normal((2, len(size), len(size)))
    O = np.linalg.qr(x[0] if real else x[0] + 1j * x[1])[0]
    t = np.where(rng.random(len(size)) < 1 / 3, 0.0, rng.uniform(0.0, np.pi, len(size)))
    phi, psi = rng.uniform(0.0, np.pi, len(size)), rng.uniform(0.0, 2 * np.pi, len(size))
    phase = 1.0 if real else np.exp(1j * psi)
    pair = []
    for quotient, scalar in (((O * np.cos(t)) @ O.conj().T, phase * np.cos(phi)),
                             ((O * np.sin(t)) @ O.conj().T, phase * np.sin(phi))):
        table = quotient / np.sqrt(np.outer(size, size)) - np.diag(scalar / size)
        pair.append(table[np.ix_(blk, blk)] + np.diag(scalar[blk]))
    return tuple(pair)


def mp_probabilities(A, B, k: float) -> np.ndarray:
    """|S_ij(k)|^2 = |-(A + ikB)^{-1} (A - ikB)|^2 at 30 digits, rounded to float."""
    with mpmath.workdps(30):
        A, B = (mpmath.matrix(np.vectorize(mpmath.mpc, otypes=[object])(m).tolist()) for m in (A, B))
        ik = mpmath.mpc(0, k)
        s = -mpmath.inverse(A + ik * B) * (A - ik * B)
        return np.array([[float(abs(s[i, j]) ** 2) for j in range(s.cols)] for i in range(s.rows)])


def solve_condition(c, ks) -> np.ndarray:
    """cond_2(A + ikB) at each momentum: the batched solve's error is of order eps times it."""
    return np.linalg.cond(c.A + 1j * ks[:, None, None] * c.B)


class TestQuotientSweep:
    """A block-symmetric pair's table comes from its b x b quotient S_q(k) and one
    unimodular scalar per block of two or more edges, one value per orbit of index
    pairs (and of transposition, for a real pair); the n x n solve is the oracle."""

    KS = np.logspace(-3, 3, 61)

    def test_presets_match_the_batched_solve_within_1e_14(self):
        for fp in (FIG1_PARAMS, FIG2_PARAMS):
            c = pqrs_to_matrices(uniform_block_pqrs(fp))
            table = probability_sweep(fp, self.KS)
            raw = np.abs(_smatrix_grid(c.A, c.B, self.KS)) ** 2
            assert np.max(np.abs(table.probabilities - raw)) <= 1e-14, fp

    def test_block_symmetric_pairs_match_the_batched_solve(self):
        """Every block triple with n <= 8, a real and a complex pair each: the gap to the
        n x n solve stays within 1e-14 times cond(A + ikB), and each row and column of
        |S|^2 sums to 1 within 1e-12."""
        rng = np.random.default_rng(27)
        for sizes in block_triples(8):
            for real in (True, False):
                c = validate(*block_symmetric_pair(sizes, rng, real))
                table = pair_sweep(c.A, c.B, self.KS, sizes)
                merged = not (c.A.imag.any() or c.B.imag.any())  # for real draws, and n = 1
                assert table.values.shape[1] - 1 == len(orbits(sizes, transpose=merged))
                gap = np.abs(table.probabilities - np.abs(_smatrix_grid(c.A, c.B, self.KS)) ** 2)
                assert (gap.max(axis=(-2, -1)) <= 1e-14 * solve_condition(c, self.KS)).all(), sizes
                for axis in (-2, -1):
                    assert np.max(np.abs(table.probabilities.sum(axis=axis) - 1.0)) <= 1e-12

    def test_orbit_values_are_constant_and_nearer_the_30_digit_value(self):
        """Each uniform design with n <= 6: one float per orbit, within 1e-14 times
        cond(A + ikB) of ``smatrix_direct``; against |S_ij|^2 at 30 digits, the quotient's
        worst error stays within 2e-15 and below that of the n x n solve."""
        ks = np.array([1e-3, 1e3])  # where the n x n solve is least accurate
        worst = {"quotient": 0.0, "solve": 0.0}
        for fp in uniform_designs():
            table = probability_sweep(fp, ks)
            c = pqrs_to_matrices(uniform_block_pqrs(fp))
            for rows, cols in orbits(fp.block_sizes, transpose=True):
                values = table.probabilities[:, rows, cols]
                assert (values == values[:, :1]).all(), (fp, rows, cols)
            direct = np.array([np.abs(np.asarray(smatrix_direct(c, float(k)).entries)) ** 2
                               for k in ks])
            gap = np.abs(table.probabilities - direct).max(axis=(-2, -1))
            assert (gap <= 1e-14 * solve_condition(c, ks)).all(), fp
            raw = np.abs(_smatrix_grid(c.A, c.B, ks)) ** 2
            for i, k in enumerate(ks):
                exact = mp_probabilities(c.A, c.B, k)
                worst["quotient"] = max(worst["quotient"], np.abs(table.probabilities[i] - exact).max())
                worst["solve"] = max(worst["solve"], np.abs(raw[i] - exact).max())
        assert worst["quotient"] <= min(2e-15, worst["solve"]), worst

    def test_symmetric_rows_repeat_one_value_per_orbit(self):
        table = probability_sweep(FIG1_PARAMS, np.logspace(-2, 2, 200))
        distinct = [len(np.unique(row)) for row in table.probabilities.reshape(200, -1)]
        assert max(distinct) <= len(orbits(FIG1_PARAMS.block_sizes, transpose=True)) == 8
        assert table.values.shape == (200, 1 + 8)  # k, then one value per orbit


class TestNoSymmetryNoAveraging:
    """Averaging follows the symmetries that (A, B) has exactly, and no others."""

    KS = np.logspace(-3, 3, 41)

    def test_complex_uniform_blocks_are_averaged_inside_blocks_only(self):
        layout = PQRSForm.layout(5, 3, 4)
        constants = {"P": 2.5 + 1.5j, "Q": 1.2, "R": 0.7, "S": 3.0}
        form = PQRSForm(5, 3, 4, tuple(range(5)),
                        **{name: constants[name] * np.ones(shape, dtype=complex)
                           for name, shape in layout.items()})
        c = pqrs_to_matrices(form)
        table = pair_sweep(c.A, c.B, self.KS, (2, 2, 1))
        for rows, cols in orbits((2, 2, 1), transpose=False):
            values = table.probabilities[:, rows, cols]
            assert (values == values[:, :1]).all()
        # no time reversal: |S_13|^2 and |S_31|^2 (blocks 1 -> 2 and 2 -> 1) differ
        forward, backward = table.probabilities[:, 0, 2], table.probabilities[:, 2, 0]
        assert np.max(np.abs(forward - backward)) > 1e-3

    def test_generic_coupling_keeps_its_raw_grid(self):
        c = random_coupling(5, 3, 4, np.random.default_rng(22))
        assert np.iscomplexobj(c.A) and c.A.imag.any()
        table = pair_sweep(c.A, c.B, self.KS, (2, 2, 1))
        assert np.array_equal(table.probabilities, np.abs(_smatrix_grid(c.A, c.B, self.KS)) ** 2)

    def test_blocks_that_break_the_symmetry_keep_the_raw_grid(self):
        c = pqrs_to_matrices(uniform_block_pqrs(FIG1_PARAMS))
        raw = np.abs(_smatrix_grid(c.A, c.B, self.KS)) ** 2
        for sizes in ((1, 2, 2), (2, 1, 2), (3, 2, 0)):
            assert np.array_equal(pair_sweep(c.A, c.B, self.KS, sizes).probabilities, raw), sizes


def span_block_means(x, sizes) -> dict[str, np.ndarray]:
    """Block means written out from the block spans and eye masks, keyed by CSV
    column: the reference that ``_block_means`` matches bit for bit."""
    edges = np.cumsum((0,) + tuple(sizes))
    spans = [(mu, slice(edges[mu - 1], edges[mu])) for mu in (1, 2, 3) if sizes[mu - 1]]
    means = {}
    for mu, rows in spans:
        for nu, cols in spans:
            blk = x[..., rows, cols]
            if mu != nu:
                means[f"b{mu}{nu}"] = blk.mean(axis=(-2, -1))
                continue
            means[f"b{mu}{mu}_refl"] = np.diagonal(blk, axis1=-2, axis2=-1).mean(axis=-1)
            if sizes[mu - 1] > 1:
                off = np.ascontiguousarray(blk[..., ~np.eye(sizes[mu - 1], dtype=bool)])
                means[f"b{mu}{mu}_intra"] = off.mean(axis=-1)
    return means


def block_triples(max_degree):
    """Every (m, n_a, n_b) of non-negative block sizes with 1 <= m + n_a + n_b <= max_degree."""
    return [(m, na, n - m - na) for n in range(1, max_degree + 1)
            for m in range(n + 1) for na in range(n - m + 1)]


class TestOnePartition:
    """The orbits of ``_orbit_members`` are the one partition of index pairs behind the
    sweep's symmetry test and value columns, its block means, the header and the limit
    tables."""

    def test_block_means_equal_the_span_reference_bit_for_bit(self, rng):
        for sizes in block_triples(11):
            n = sum(sizes)
            for rows in (1, 3, SWEEP_BLOCK):
                x = rng.random((rows, n, n))
                means, reference = block_means(x, sizes), span_block_means(x, sizes)
                assert [f"b{mu}{nu}{kind}" for mu, nu, kind in means] == list(reference)
                for mean, expected in zip(means.values(), reference.values()):
                    assert mean.shape == expected.shape == (rows,)
                    assert mean.tobytes() == expected.tobytes(), (sizes, rows)

    def test_header_equals_the_benchmark_reference(self, bench_workloads):
        for sizes in [None] + block_triples(6):
            n = 4 if sizes is None else sum(sizes)
            table = grid_table(np.ones(1), np.zeros((1, n, n)), sizes)
            assert table.header() == bench_workloads.reference.sweep_header(n, sizes)

    def test_orbit_table_partitions_like_the_group(self):
        rng = np.random.default_rng(28)
        for sizes in block_triples(6):
            n = sum(sizes)
            members = [(n * rows + cols).tolist() for rows, cols in orbits(sizes, False)]
            assert list(_orbit_members(sizes).values()) == sorted(members, key=lambda pairs: pairs[0])
            for real in (True, False):  # a real pair's quotient joins transposed blocks
                pair = block_symmetric_pair(sizes, rng, real)
                merged = not (pair[0].imag.any() or pair[1].imag.any())
                pair_columns = np.reshape(_quotient_sweep(*pair, sizes)[1], (n, n))
                groups = orbits(sizes, transpose=merged)
                # constant on each orbit of the group, and value columns 1, 2, ... in CSV order
                assert all((pair_columns[g] == pair_columns[g][0]).all() for g in groups), sizes
                assert sorted(pair_columns[g][0] for g in groups) == list(range(1, len(groups) + 1))
                assert list(dict.fromkeys(pair_columns.ravel())) == list(range(1, len(groups) + 1))
