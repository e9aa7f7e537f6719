"""Span tracing of ``qgvertex`` layers from outside the package.

``instrument`` replaces each traced function at every module attribute of
the package that is bound to it, which is the name its callers resolve at
call time: ``qgvertex.cli.smatrix_direct`` is what ``cmd_sweep`` calls and
``qgvertex.linalg.rank`` is what ``forms`` reaches through ``linalg.rank``.
Each call while the tracer is active records one span (name, start, end,
parent, item id) in memory.  ``SweepTable.rows`` is a generator, so each
``next()`` on it is one span; that separates row aggregation from the
formatting and I/O of ``write_sweep_csv`` that drives it.

A layer's self time is its spans' durations minus the part covered by
their child spans.  Time in functions that are not traced is charged to the
nearest traced caller, and time inside an item outside every traced span
is reported as unattributed.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

#: module -> traced functions; every public entry point the workloads reach
TRACED = {
    "cli": ("main",),
    "documents": ("parse_document", "loads", "dumps", "form_to_document",
                  "as_coupling", "write_sweep_csv"),
    "coupling": ("validate", "to_unitary", "from_unitary"),
    "linalg": ("rank", "inverse"),
    "forms": ("to_st_form", "to_reverse_st_form", "to_pqrs_form", "to_projector_form",
              "st_to_matrices", "reverse_st_to_matrices", "pqrs_to_matrices",
              "projector_to_matrices"),
    "scattering": ("smatrix_direct", "smatrix_st", "smatrix_reverse_st", "smatrix_pqrs",
                   "smatrix_projector", "limit_low_k", "limit_high_k", "expand"),
    "filters": ("SweepTable.rows", "probability_sweep", "amplitude_limits",
                "classify_branching", "uniform_block_pqrs"),
}

#: layers that run inside a timed item; ``sampling`` only builds inputs
LAYERS = tuple(TRACED)

ITEM_SPAN = "bench.item"

# Per-layer metrics every traced run reports, in the order of the layer ->
# end-to-end table in README.md.  Stats of a function a workload never
# calls read 0.
PER_LAYER_METRICS = (
    ("filters.SweepTable.rows.self_s", "s", "lower"),
    ("documents.write_sweep_csv.self_s", "s", "lower"),
    ("documents.write_sweep_csv.bytes", "bytes", "lower"),
    ("scattering.smatrix_direct.calls", "count", "lower"),
    ("scattering.smatrix_direct.self_s", "s", "lower"),
    ("documents.parse_document.ms_p50", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.rank.calls_per_pqrs.n150", "count", "lower"),
    ("forms.to_st_form.calls", "count", "lower"),
    *((f"forms.{fn}.ms_p50.n{n}", "ms", "lower")
      for fn in ("to_st_form", "to_reverse_st_form", "to_pqrs_form", "to_projector_form")
      for n in (60, 150)),
    ("coupling.validate.ms_p50.n60", "ms", "lower"),
    ("coupling.validate.ms_p50.n150", "ms", "lower"),
    ("coupling.to_unitary.ms_p50.n150", "ms", "lower"),
    *((f"scattering.{fn}.us_p50", "us", "lower")
      for fn in ("smatrix_direct", "smatrix_st", "smatrix_reverse_st", "smatrix_pqrs",
                 "smatrix_projector", "limit_low_k", "limit_high_k", "expand")),
    ("filters.probability_sweep.ms_p50", "ms", "lower"),
    ("filters.amplitude_limits.ms_p50", "ms", "lower"),
    ("filters.classify_branching.ms_p50", "ms", "lower"),
    ("documents.loads.us_p50", "us", "lower"),
    ("documents.dumps.us_p50", "us", "lower"),
    ("coupling.validate.us_p50", "us", "lower"),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


class Tracer:
    """In-memory span recorder; records nothing while ``active`` is false."""

    def __init__(self):
        self.active = False
        self.item = None
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        self.spans = []
        self._stack = []


def _wrap_function(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _wrap_generator(tracer: Tracer, method, name: str):
    """Charge a generator method's time per ``next()``, not per call."""

    def step(gen):
        while True:
            if not tracer.active:
                try:
                    yield next(gen)
                except StopIteration:
                    return
                continue
            idx = tracer.open(name)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield value

    @functools.wraps(method)
    def traced(*args, **kwargs):
        return step(method(*args, **kwargs))
    return traced


def instrument(tracer: Tracer):
    """Wrap every function in ``TRACED`` wherever the package binds it.

    Returns a function that puts the original bindings back, so that
    untraced passes run the package exactly as it is.
    """
    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "qgvertex" or key.startswith("qgvertex."))]
    for layer, names in TRACED.items():
        home = sys.modules[f"qgvertex.{layer}"]
        for qualname in names:
            span = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                undo.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, _wrap_generator(tracer, getattr(cls, attr), span))
                continue
            original = getattr(home, qualname)
            traced = _wrap_function(tracer, original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, traced)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def pass_stats(spans, item_n: dict) -> dict:
    """Per-function calls, self time and durations of one traced pass.

    Returns {"calls": {name: int}, "self_s": {name: float},
    "durations": {(name, None or degree n): [seconds]}, "pass_s": float,
    "rank_per_pqrs": {n: (rank calls under to_pqrs_form, pqrs calls)}}.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    pass_s = 0.0
    for idx, (name, start, end, parent, item) in enumerate(spans):
        dur = end - start
        if name == ITEM_SPAN:
            pass_s += dur
        calls[name] += 1
        self_s[name] += dur - child[idx]
        durations[(name, None)].append(dur)
        durations[(name, item_n[item])].append(dur)
    rank_per_pqrs = defaultdict(lambda: [0, 0])
    for idx, (name, _, _, parent, item) in enumerate(spans):
        if name == "forms.to_pqrs_form":
            rank_per_pqrs[item_n[item]][1] += 1
        elif name == "linalg.rank":
            p = parent
            while p >= 0 and spans[p][0] != "forms.to_pqrs_form":
                p = spans[p][3]
            if p >= 0:
                rank_per_pqrs[item_n[item]][0] += 1
    return {"calls": dict(calls), "self_s": dict(self_s), "durations": dict(durations),
            "pass_s": pass_s, "rank_per_pqrs": dict(rank_per_pqrs)}


def layer_metrics(passes: list[dict], rep: int, overhead_frac: float, bytes_written: int) -> dict:
    """Per-layer metric values from the stats of one or more traced passes.

    Counts come from the first pass (they repeat exactly for a seed); self
    times come from pass ``rep``; per-call medians pool every pass.
    """
    first, chosen = passes[0], passes[rep]

    def pooled(name, n=None):
        return [d for p in passes for d in p["durations"].get((name, n), [])]

    out = {}
    for metric, _, _ in PER_LAYER_METRICS:
        parts = metric.split(".")
        if parts[0] == "layer":
            value = sum(v for k, v in chosen["self_s"].items() if k.split(".")[0] == parts[1])
        elif metric == "trace.unattributed_s":
            value = chosen["self_s"].get(ITEM_SPAN, 0.0)
        elif metric == "trace.pass_s":
            value = chosen["pass_s"]
        elif metric == "trace.overhead_frac":
            value = overhead_frac
        elif metric == "documents.write_sweep_csv.bytes":
            value = bytes_written
        elif metric == "linalg.rank.calls_per_pqrs.n150":
            rank_calls, pqrs_calls = first["rank_per_pqrs"].get(150, (0, 0))
            value = rank_calls / pqrs_calls if pqrs_calls else 0.0
        else:
            at = next(i for i, part in enumerate(parts)
                      if part in ("calls", "self_s", "ms_p50", "us_p50"))
            name, stat = ".".join(parts[:at]), parts[at]
            n = int(parts[at + 1][1:]) if len(parts) > at + 1 else None
            if stat == "calls":
                value = first["calls"].get(name, 0)
            elif stat == "self_s":
                value = chosen["self_s"].get(name, 0.0)
            else:
                value = _p50(pooled(name, n)) * (1e3 if stat == "ms_p50" else 1e6)
        out[metric] = value
    return out
