"""Tests of the benchmark itself: seeded inputs, checks and tracing.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qgvertex import sampling, scattering  # noqa: E402


def _fields(item):
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(item).items()}


def _items(name, seed, tmp_path):
    return workloads.WORKLOADS[name].make_items(seed, tmp_path)


@pytest.mark.parametrize("name", ["cli-sweep", "large-n-forms", "small-n-mix"])
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = [_fields(i) for i in _items(name, 7, tmp_path)]
    again = [_fields(i) for i in _items(name, 7, tmp_path)]
    other = [_fields(i) for i in _items(name, 8, tmp_path)]
    assert first == again
    assert first != other


def test_small_mix_covers_every_admissible_rank_pair(tmp_path):
    items = workloads.make_small_items(3, tmp_path)
    for kind in (workloads.CouplingItem, workloads.DesignItem):
        seen = {(i.n, i.r_a, i.r_b) for i in items if isinstance(i, kind)}
        for n in range(1, 6):
            assert {(n, ra, rb) for ra, rb in sampling.admissible_rank_pairs(n)} <= seen
    kinds = [type(i) for i in items]
    assert all(a is not b for a, b in zip(kinds, kinds[1:])), "kinds must interleave"


def _tally(name, items):
    wl = workloads.WORKLOADS[name]
    tally = run.Tally()
    for item in items:
        run.run_item(wl, item, tally)
    return tally


def test_small_mix_items_pass_their_checks(tmp_path):
    items = workloads.make_small_items(5, tmp_path)
    tally = _tally("small-n-mix", items[:40])
    assert (tally.attempted, tally.failed) == (40, 0), tally.problems
    assert 0.0 < tally.max_error < workloads.SMALL_TOL


def test_perturbed_smatrix_is_counted_as_failed(tmp_path, monkeypatch):
    item = next(i for i in workloads.make_small_items(5, tmp_path)
                if isinstance(i, workloads.CouplingItem) and i.n >= 3 and i.r_b >= 1)
    original = scattering.smatrix_st

    def perturbed(form, k):
        s = original(form, k)
        entries = np.array(s.entries)
        entries[0, 0] += 1e-7
        return replace(s, entries=entries)

    monkeypatch.setattr(scattering, "smatrix_st", perturbed)
    tally = _tally("small-n-mix", [item])
    assert tally.failed == 1
    assert "via st" in tally.problems[0]


def test_large_projector_rebuild_is_judged_at_the_large_tolerance(tmp_path):
    # this n = 150 item's projector pair is Hermitian only to 2e-10 relative
    item = workloads.make_large_items(1027653364, tmp_path)[5]
    assert item.n == 150
    tally = _tally("large-n-forms", [item])
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems


def test_non_hermitian_rebuilt_projector_pair_is_counted_as_failed(tmp_path):
    item = next(i for i in workloads.make_large_items(4, tmp_path) if i.n == 60)
    wl = workloads.WORKLOADS["large-n-forms"]
    output = wl.run(item)
    lam = np.array(output["pr"].lam)
    lam[0, 1] += 1e-4
    output["pr"] = replace(output["pr"], lam=lam)
    tally = run.Tally()
    tally.record(wl, item, output, None)
    assert tally.failed == 1
    assert "NotSelfAdjoint" in tally.problems[0]


def test_singular_design_error_is_expected_not_failed(tmp_path):
    items = [i for i in workloads.make_small_items(5, tmp_path)
             if isinstance(i, workloads.DesignItem)]
    singular = next(i for i in items if i.params.block_sizes[0] >= 2)
    regular = next(i for i in items if i.params.block_sizes[0] == 1)
    tally = _tally("small-n-mix", [singular, regular])
    assert (tally.failed, tally.expected_errors) == (0, 1), tally.problems


@pytest.fixture
def small_sweep(tmp_path):
    item = workloads.make_sweep_items(11, tmp_path, points=200)[1]
    output = workloads.run_sweep(item)
    assert workloads.check_sweep(item, output).problems == []
    return item, output


def _edit_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column", [2, -1])  # S12 of a row, then a block column
def test_corrupted_csv_row_is_counted_as_failed(small_sweep, column):
    item, output = small_sweep
    _edit_csv(item.csv_path, 57, column, lambda v: repr(float(v) + 1e-6))
    assert workloads.check_sweep(item, output).problems


def test_missing_csv_file_is_counted_as_failed(small_sweep):
    item, _ = small_sweep
    item.csv_path.unlink()
    tally = run.Tally()
    tally.record(workloads.WORKLOADS["cli-sweep"], item, {"rc": (0, 0), "report": ""}, None)
    assert tally.failed == 1


def test_missing_csv_row_is_counted_as_failed(small_sweep):
    item, output = small_sweep
    lines = item.csv_path.read_text().splitlines()
    item.csv_path.write_text("\n".join(lines[:-1]) + "\n")
    assert workloads.check_sweep(item, output).problems


def _traced_pass(name, items):
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        run.run_pass(workloads.WORKLOADS[name], items, run.Tally(), tracer)
    finally:
        restore()
    return tracing.pass_stats(tracer.spans, {i.idx: i.n for i in items})


def test_traced_calls_repeat_and_self_times_add_up(tmp_path):
    items = workloads.make_small_items(9, tmp_path)[:12]
    first = _traced_pass("small-n-mix", items)
    second = _traced_pass("small-n-mix", items)
    assert first["calls"] == second["calls"]
    assert first["calls"]["linalg.rank"] > 0
    metrics = tracing.layer_metrics([first], 0, 0.0, 0)
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.pass_s"])
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER_METRICS}


def test_instrumentation_is_removed_after_a_pass(tmp_path):
    before = scattering.smatrix_direct
    _traced_pass("small-n-mix", workloads.make_small_items(9, tmp_path)[:2])
    assert scattering.smatrix_direct is before


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-n-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
