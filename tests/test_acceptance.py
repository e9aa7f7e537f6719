"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``);
the assertion carries the measured number so a failure is self-explaining.
"""

import time

import numpy as np
import pytest

from qgvertex import (
    FIG1_PARAMS,
    FIG2_PARAMS,
    admissible_rank_pairs,
    amplitude_limits,
    bc_residual,
    classify_branching,
    delta_parameters,
    expand,
    limit_high_k,
    limit_low_k,
    linalg,
    parameter_count,
    pqrs_to_matrices,
    smatrix_direct,
    smatrix_pqrs,
    smatrix_projector,
    smatrix_reverse_st,
    smatrix_st,
    subfamily_count,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    validate,
)
from qgvertex.cli import main
from qgvertex.filters import DELTA_DELTA_DELTAPRIME, DELTA_DELTAPRIME_DELTAPRIME

from conftest import unitarity_defect
from test_coupling import delta_pair

K_GRID = np.logspace(-3, 3, 7)
EQUIV_GRID = (0.1, 1.0, 10.0)

# residuals of every scattering matrix computed by the equivalence sweep,
# re-checked by the physical-consistency criterion
_RESIDUALS: list[float] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def gap(a, b) -> float:
    return linalg.max_norm(np.asarray(a) - np.asarray(b))


def test_unitarity_suite(corpus):
    """S(k) unitary to 1e-10 over the corpus and a 7-point log grid."""
    start = time.perf_counter()
    worst = 0.0
    for c in corpus:
        for k in K_GRID:
            worst = max(worst, unitarity_defect(smatrix_direct(c, k).entries))
    elapsed = time.perf_counter() - start
    report("unitarity-suite", worst < 1e-10 and elapsed < 10.0,
           f"max defect {worst:.3e}, {elapsed:.1f}s over {len(corpus)} couplings")


def test_formula_equivalence(corpus):
    """Direct, ST, reverse-ST, PQRS and projector routes agree to 1e-9."""
    start = time.perf_counter()
    worst = 0.0
    _RESIDUALS.clear()
    for c in corpus:
        st = to_st_form(c)
        rst = to_reverse_st_form(c)
        pqrs = to_pqrs_form(c)
        proj = to_projector_form(c)
        for k in K_GRID:
            matrices = [
                smatrix_direct(c, k),
                smatrix_st(st, k),
                smatrix_reverse_st(rst, k),
                smatrix_pqrs(pqrs, k),
                smatrix_projector(proj, k),
            ]
            for s in matrices:
                _RESIDUALS.append(bc_residual(c, s))
            for i in range(len(matrices)):
                for j in range(i + 1, len(matrices)):
                    worst = max(worst, gap(matrices[i].entries, matrices[j].entries))
    elapsed = time.perf_counter() - start
    report("formula-equivalence", worst < 1e-9 and elapsed < 30.0,
           f"max pairwise gap {worst:.3e}, {elapsed:.1f}s")


def test_pqrs_roundtrip(corpus):
    """Reconstruction is S(k)-equivalent and the decomposition is idempotent."""
    worst_gap = 0.0
    worst_block = 0.0
    perms_stable = True
    for c in corpus:
        f1 = to_pqrs_form(c)
        back = pqrs_to_matrices(f1)
        for k in EQUIV_GRID:
            worst_gap = max(worst_gap, gap(smatrix_direct(back, k).entries,
                                           smatrix_direct(c, k).entries))
        f2 = to_pqrs_form(back)
        perms_stable = perms_stable and (f2.perm == f1.perm)
        for name in ("P", "Q", "R", "S"):
            worst_block = max(worst_block, gap(getattr(f1, name), getattr(f2, name)))
    report("pqrs-roundtrip",
           worst_gap < 1e-9 and perms_stable and worst_block < 1e-12,
           f"S(k) gap {worst_gap:.3e}, block drift {worst_block:.3e}, "
           f"permutations stable: {perms_stable}")


def test_limits(corpus):
    """Limit matrices match S(1e6) and S(1e-6) to 1e-5 (low-k: regular S only)."""
    worst_high = 0.0
    worst_low = 0.0
    low_checked = 0
    for c in corpus:
        f = to_pqrs_form(c)
        worst_high = max(worst_high, gap(limit_high_k(f).entries,
                                         smatrix_direct(c, 1e6).entries))
        m = f.block_sizes[0]
        if m == 0 or linalg.rank(f.S) == m:
            worst_low = max(worst_low, gap(limit_low_k(f).entries,
                                           smatrix_direct(c, 1e-6).entries))
            low_checked += 1
    report("limits", worst_high < 1e-5 and worst_low < 1e-5,
           f"high {worst_high:.3e}, low {worst_low:.3e} on {low_checked} regular-S cases")


def test_expansion_order():
    """High-k truncation error decays as k^-(J+1) on the delta coupling."""
    c = validate(*delta_pair(2.0))
    f = to_pqrs_form(c)
    ks = np.logspace(2, 4, 9)
    slopes = []
    for order in (0, 1, 2):
        series = expand(f, "high-k", order)
        errs = [gap(series.evaluate(k), smatrix_direct(c, k).entries) for k in ks]
        slopes.append(float(np.polyfit(np.log(ks), np.log(errs), 1)[0]))
    ok = all(abs(slope + (j + 1)) < 0.1 for j, slope in enumerate(slopes))
    report("expansion-order", ok,
           "slopes " + ", ".join(f"{s:+.3f}" for s in slopes) + " vs -1, -2, -3")


def test_counting_identities():
    """Exact parameter-count identities for n <= 8 and subfamily counts for n <= 10."""
    ok = True
    for n in range(1, 9):
        for r_a, r_b in admissible_rank_pairs(n):
            ok = ok and (parameter_count(n, r_a, r_b)
                         + (n - r_a) ** 2 + (n - r_b) ** 2 == n * n)
            delta = delta_parameters(n, r_a, r_b)  # asserts both expressions agree
            ok = ok and delta == 2 * (r_a * r_b - (r_a + r_b - n) ** 2)
    for n in range(1, 11):
        brute = sum(1 for ra in range(n + 1) for rb in range(n + 1) if ra + rb >= n)
        ok = ok and subfamily_count(n) == brute
    report("counting-identities", ok)


def test_closed_form_amplitudes():
    """Uniform-block closed forms match the matrix limits; presets classify."""
    worst = 0.0
    sides = []
    for fp, expected in ((FIG1_PARAMS, DELTA_DELTA_DELTAPRIME),
                         (FIG2_PARAMS, DELTA_DELTAPRIME_DELTAPRIME)):
        limits = amplitude_limits(fp)
        for miss in limits.mismatches:
            print(f"  closed-form mismatch {miss.side} {miss.pair}: "
                  f"closed {miss.closed_form!r} vs matrix {miss.matrix_limit!r}")
        for pair, value in limits.closed_form_high.items():
            worst = max(worst, abs(value - limits.high_k[pair]))
        for pair, value in limits.closed_form_low.items():
            worst = max(worst, abs(value - limits.low_k[pair]))
        sides.append((classify_branching(fp, 3.0), expected, limits.mismatches == ()))
    ok = worst < 1e-6 and all(got == want and clean for got, want, clean in sides)
    report("closed-form-amplitudes", ok,
           f"max closed-vs-matrix gap {worst:.3e}; "
           + "; ".join(f"{want}: {'ok' if got == want else got}" for got, want, _ in sides))


def test_physical_consistency(corpus):
    """Boundary-condition residual below 1e-9 for every computed S."""
    if not _RESIDUALS:  # equivalence sweep not run yet (e.g. single-test run)
        for c in corpus[:20]:
            for k in K_GRID:
                _RESIDUALS.append(bc_residual(c, smatrix_direct(c, k)))
    worst = max(_RESIDUALS)
    report("physical-consistency", worst < 1e-9,
           f"max residual {worst:.3e} over {len(_RESIDUALS)} matrices")


def test_cli_golden_files(tmp_path, capsys):
    """Preset sweep CSVs are byte-stable and their endpoints match the limits."""
    ok = True
    details = []
    for preset, fp in (("fig1", FIG1_PARAMS), ("fig2", FIG2_PARAMS)):
        assert main(["filter-demo", "--preset", preset]) == 0
        doc_path = tmp_path / f"{preset}.json"
        doc_path.write_text(capsys.readouterr().out, encoding="utf-8")
        payloads = []
        for attempt in ("first", "second"):
            out_path = tmp_path / f"{preset}-{attempt}.csv"
            assert main(["sweep", str(doc_path), "--k-min", "0.01", "--k-max", "100",
                         "--points", "41", "--out", str(out_path)]) == 0
            payloads.append(out_path.read_bytes())
        stable = payloads[0] == payloads[1]

        lines = payloads[0].decode().strip().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, (float(v) for v in lines[1].split(","))))
        last = dict(zip(header, (float(v) for v in lines[-1].split(","))))
        limits = amplitude_limits(fp)
        endpoint_gap = 0.0
        for (mu, nu), amp in limits.low_k.items():
            endpoint_gap = max(endpoint_gap, abs(first[f"b{mu}{nu}"] - amp**2))
        for (mu, nu), amp in limits.high_k.items():
            endpoint_gap = max(endpoint_gap, abs(last[f"b{mu}{nu}"] - amp**2))
        for mu, amp in limits.low_k_reflection.items():
            endpoint_gap = max(endpoint_gap, abs(first[f"b{mu}{mu}_refl"] - amp**2))
        for mu, amp in limits.high_k_reflection.items():
            endpoint_gap = max(endpoint_gap, abs(last[f"b{mu}{mu}_refl"] - amp**2))
        for mu, amp in limits.low_k_intra.items():
            endpoint_gap = max(endpoint_gap, abs(first[f"b{mu}{mu}_intra"] - amp**2))
        for mu, amp in limits.high_k_intra.items():
            endpoint_gap = max(endpoint_gap, abs(last[f"b{mu}{mu}_intra"] - amp**2))
        ok = ok and stable and endpoint_gap < 1e-3
        details.append(f"{preset}: stable={stable}, endpoint gap {endpoint_gap:.2e}")
    report("cli-golden-files", ok, "; ".join(details))
