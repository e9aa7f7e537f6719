"""Benchmark of the qgvertex library and CLI.

    python3 bench/run.py --workload cli-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Run from the repository root.  The package is imported from ``src/`` next
to this directory, with BLAS pinned to one thread.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
over a fixed set of items and reports per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the full record,
which is also written to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported, here or in a child
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from tracing import ITEM_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: set-up is measured this many times per run, each in a fresh interpreter
SETUP_PROBES = 7

#: end-to-end metrics of a run with --trace 0, with their units
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import qgvertex from this checkout's src/ and nowhere else."""
    if not (SRC / "qgvertex" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'qgvertex'}")
    sys.path.insert(0, str(SRC))
    import qgvertex
    if Path(qgvertex.__file__).resolve().parent != SRC / "qgvertex":
        sys.exit(f"error: imported qgvertex from {qgvertex.__file__}, not {SRC}")
    return qgvertex


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout from .git itself; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting an interpreter to qgvertex imported and inputs built."""
    t0 = perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.read()
    finally:
        child.stdout.close()
        if child.wait(timeout=120) != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe failed for {workload}")
    return elapsed


class Tally:
    """Attempts, failures and check results of the items run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.expected_errors = 0
        self.max_error = 0.0
        self.problems: list[str] = []

    def record(self, wl, item, output, exc) -> None:
        self.attempted += 1
        if exc is None:
            try:
                outcome = wl.check(item, output)
            except Exception as err:  # outputs too malformed to check
                exc = err
        if exc is not None:
            problems = ["".join(traceback.format_exception_only(type(exc), exc)).strip()]
        else:
            problems = outcome.problems
            self.expected_errors += outcome.expected_errors
            self.max_error = max(self.max_error, outcome.max_error)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"item {item.idx}: {'; '.join(problems)}")


def run_item(wl, item, tally, tracer=None) -> tuple[float, int]:
    """Run one item, then check it; returns (seconds in the call, CSV bytes).

    With a tracer the call runs inside an item span, and the tracer is
    active only during the call, never during the checks.  The outputs are
    dropped on return, so they never add to the next call's peak memory.
    """
    if tracer is not None:
        tracer.item = item.idx
        tracer.active = True
        root = tracer.open(ITEM_SPAN)
    t0 = perf_counter()
    try:
        output, exc = wl.run(item), None
    except Exception as err:  # counted as a failed call, the loop goes on
        output, exc = None, err
    finally:
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.active = False
    tally.record(wl, item, output, exc)
    return dt, (output or {}).get("csv_bytes", 0)


def timed_run(wl, items, seconds: float, probe) -> dict:
    """Closed loop over the pool until ``seconds`` have passed.

    The loop covers the whole pool at least once and, for workloads whose
    items differ in cost, stops only at a pool boundary, so that every run
    weighs the item classes alike.  Throughput is work over call time for
    the whole run.  The machine's speed drifts over seconds, so the set-up
    probes are spread over the run instead of running back to back.
    """
    tally = Tally()
    latencies, setup_times = [], [probe()]
    granule = len(items) if wl.whole_pool else 1
    units = 0
    start = perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        dt, _ = run_item(wl, item, tally)
        latencies.append(dt)
        units += item.units
        i += 1
        if i % granule:
            continue
        elapsed = perf_counter() - start
        if len(setup_times) < SETUP_PROBES and elapsed >= seconds * len(setup_times) / SETUP_PROBES:
            setup_times.append(probe())
        if i >= len(items) and elapsed >= seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    busy = sum(latencies)
    return {
        "tally": tally,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "throughput": units / busy,
            "call_ms_p50": 1e3 * statistics.median(latencies),
            "call_ms_p90": 1e3 * _quantile(latencies, 0.9),
        },
        "samples": len(latencies),
        "setup_s_probes": setup_times,
        "busy_s": busy,
        "wall_s": perf_counter() - start,
    }


def run_pass(wl, subset, tally, tracer=None) -> tuple[float, int]:
    """One pass over ``subset``; returns (seconds in calls, CSV bytes written)."""
    busy, bytes_written = 0.0, 0
    for item in subset:
        dt, written = run_item(wl, item, tally, tracer)
        busy += dt
        bytes_written += written
    return busy, bytes_written


def traced_run(wl, items, seconds: float, seed: int) -> dict:
    """Pairs of untraced and traced passes over the same fixed items.

    The pair order alternates so that neither side always runs warm.  The
    untraced pass runs the package with no wrapper installed at all.  No
    pair starts that would end after ``seconds``, except the first.
    """
    subset = items[:wl.trace_items] if wl.trace_items else items
    item_n = {item.idx: item.n for item in subset}
    tracer = tracing.Tracer()
    tally = Tally()
    passes, ratios, spans = [], [], []
    start = perf_counter()
    pair_s = 0.0
    while not passes or perf_counter() - start + pair_s <= seconds:
        pair_start = perf_counter()
        times = {}
        for traced in ((False, True) if len(passes) % 2 == 0 else (True, False)):
            if not traced:
                times[traced], _ = run_pass(wl, subset, tally)
                continue
            restore = tracing.instrument(tracer)
            tracer.reset()
            try:
                times[traced], bytes_written = run_pass(wl, subset, tally, tracer)
            finally:
                restore()
        passes.append(tracing.pass_stats(tracer.spans, item_n))
        ratios.append(times[True] / times[False] - 1.0)
        spans.append(tracer.spans)
        pair_s = perf_counter() - pair_start
    # time stats come from the pass of median length, so that the layers'
    # self times and the unattributed rest add up to its pass time
    rep = sorted(range(len(passes)), key=lambda j: passes[j]["pass_s"])[len(passes) // 2]
    metrics = tracing.layer_metrics(passes, rep, statistics.median(ratios), bytes_written)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in spans[rep]:
            fh.write(json.dumps(span) + "\n")
    return {
        "tally": tally,
        "metrics": metrics,
        "passes": len(passes),
        "calls_repeat": all(p["calls"] == passes[0]["calls"] for p in passes),
        "items_per_pass": len(subset),
    }


def summary_line(name: str, record: dict) -> str:
    m, units = record["all_metrics"], record["units"]
    parts = [f"{key} {m[key]:.6g} {units[key]}" for key in m]
    return f"{name}: " + " | ".join(parts) + f" | samples {record.get('samples')}"


def run_workload(args, wl, version: str) -> int:
    out_dir = OUT_DIR / wl.name
    if args.setup_probe:
        wl.make_items(args.seed, out_dir)
        print("ready", flush=True)
        return 0
    items = wl.make_items(args.seed, out_dir)
    wl.run(wl.warmup(items))
    if args.trace:
        result = traced_run(wl, items, args.seconds, args.seed)
        metrics = result["metrics"]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
    else:
        result = timed_run(wl, items, args.seconds, lambda: setup_probe(wl.name, args.seed))
        metrics = {**result["metrics"],
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS
    tally = result.pop("tally")
    record = {
        "workload": wl.name,
        "why": wl.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "package": version,
        "throughput_counts": wl.unit,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "expected_errors": tally.expected_errors,
        "problems": tally.problems,
        **result,
        "all_metrics": dict(metrics),
        "units": dict(units),
    }
    if not args.trace:
        record["all_metrics"].update(failed_frac=tally.failed / tally.attempted,
                                     max_error=tally.max_error)
        record["units"].update(failed_frac="fraction", max_error="max-norm")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if not args.trace:
        print(summary_line(wl.name, record))
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own interpreter, so peak memory is per workload."""
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {child.returncode}")
            status = 1
            continue
        record = json.loads(lines[-2])
        if args.trace:
            print(f"{name}: " + " | ".join(f"{k} {v:.6g} {record['units'][k]}"
                                           for k, v in record["all_metrics"].items()))
        else:
            print(summary_line(name, record))
        if record["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    qgvertex = import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_workload(args, workloads.WORKLOADS[args.workload], qgvertex.__version__)


if __name__ == "__main__":
    sys.exit(main())
