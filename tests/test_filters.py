"""Tests for uniform-block designs and branching classification."""

import numpy as np
import pytest

from qgvertex import (
    amplitude_limits,
    classify_branching,
    limit_high_k,
    limit_low_k,
    pqrs_to_matrices,
    probability_sweep,
    smatrix_direct,
    smatrix_pqrs,
    uniform_block_pqrs,
)
from qgvertex.errors import InvalidShape, SingularSBlock
from qgvertex.filters import (
    DELTA_DELTA_DELTAPRIME,
    DELTA_DELTAPRIME_DELTAPRIME,
    FIG1_PARAMS,
    FIG2_PARAMS,
    NO_BRANCHING,
    SWEEP_BLOCK,
    FilterParams,
    SweepTable,
    _block_means,
)

from conftest import unitarity_defect


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
            limits = amplitude_limits(fp, tol=1e-6)
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

    def test_empty_block_designs_are_unlabeled(self):
        fp = FilterParams(n=3, r_a=3, r_b=3, p=1.0, q=1.0, r=1.0, s=1.0)
        assert classify_branching(fp) == NO_BRANCHING


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

    def test_blocked_sweep_matches_per_k_loop(self):
        ks = np.logspace(-2, 2, 2 * SWEEP_BLOCK + 3)
        for fp in (FIG1_PARAMS, FIG2_PARAMS):
            table = probability_sweep(fp, ks)
            c = pqrs_to_matrices(uniform_block_pqrs(fp))
            loop = np.array([np.abs(np.asarray(smatrix_direct(c, float(k)).entries)) ** 2
                             for k in ks])
            assert np.array_equal(table.probabilities, loop)

            header = table.header()
            rows = list(table.rows())
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
                    keys = list(_block_means(np.zeros((n, n)), sizes))
                    table = SweepTable(n=n, ks=np.ones(1), probabilities=np.zeros((1, n, n)),
                                       block_sizes=sizes)
                    assert table.header()[1 + n * n:] == keys
                    fp = FilterParams(n=n, r_a=n - na, r_b=m + na, p=0.7, q=-0.4, r=1.3,
                                      s=1.1 if m else 0.0)
                    limits = amplitude_limits(fp)
                    reported = ({f"b{mu}{nu}" for mu, nu in limits.high_k}
                                | {f"b{mu}{mu}_refl" for mu in limits.high_k_reflection}
                                | {f"b{mu}{mu}_intra" for mu in limits.high_k_intra})
                    assert set(keys) == reported
                    assert limits.high_k.keys() == limits.low_k.keys()
                    assert limits.high_k_reflection.keys() == limits.low_k_reflection.keys()
                    assert limits.high_k_intra.keys() == limits.low_k_intra.keys()

    def test_stacked_block_means_equal_single_matrix_means(self, rng):
        # rows() aggregates a stack of momenta at once; each row must sum in
        # the same order as amplitude_limits does for one matrix
        for n in range(1, 8):
            for m in range(n + 1):
                for na in range(n - m + 1):
                    sizes = (m, na, n - m - na)
                    x = rng.random((3, n, n))
                    stacked = _block_means(x, sizes)
                    for i in range(3):
                        for name, value in _block_means(x[i], sizes).items():
                            assert stacked[name][i] == value, (sizes, name)

    def test_header_matches_rows(self):
        table = probability_sweep(FIG1_PARAMS, np.logspace(-1, 1, 3))
        header = table.header()
        rows = list(table.rows())
        assert len(rows) == 3
        assert all(len(r) == len(header) for r in rows)
        assert header[0] == "k"
        assert "b12" in header and "b11_refl" in header and "b11_intra" in header
        assert "b33_intra" not in header  # block 3 has one line
