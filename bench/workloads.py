"""The benchmark's workloads: seeded inputs, one timed call per item, checks.

Each workload is a closed loop over a pool of items built from the seed:
one caller runs an item, waits for it, checks its outputs outside the
timed region and moves on to the next.  ``run`` is the timed call and
reaches the package only through module attributes (``cli.main``,
``forms.to_st_form``, ...), the names a traced run wraps.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from qgvertex import cli, coupling, documents, errors, filters, forms, sampling, scattering

#: S(k) of a small coupling, on any route, must match the reference this well
#: (the repository's own acceptance criterion for route agreement and
#: boundary residuals)
SMALL_TOL = 1e-9

#: the same for n = 60 and 150.  Routes through rank-sized blocks lose
#: accuracy with the conditioning of those blocks: over 50 seeds the median
#: gap was about 1e-10 and the worst 2.7e-8 (PQRS route, n = 150), while a
#: wrong formula misses by far more than this bound.  Couplings rebuilt from
#: the forms are validated at this tolerance too: the package default (1e-10
#: relative) rejects the pair rebuilt from an n = 150 projector form on about
#: one seed in a hundred (A B* Hermitian only to 2e-10 on seed 1027653364,
#: item 5), although that pair's S(k) is within 1.2e-9 of the reference
LARGE_TOL = 1e-6

#: limit matrices against the extrapolated reference limits
LIMIT_TOL = 1e-6

#: high-k series of order 3 against S(k) at 100 times its spectral radius
SERIES_TOL = 1e-6


@dataclass
class Outcome:
    """Checks of one item: problems found, largest error, expected errors."""

    problems: list[str] = field(default_factory=list)
    max_error: float = 0.0
    expected_errors: int = 0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def error(self, value: float, tol: float, what: str) -> None:
        """Fold ``value`` into max_error and flag it when above ``tol``."""
        self.max_error = max(self.max_error, value)
        self.require(value <= tol, f"{what}: error {value:.3e} above {tol:g}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str                                # what throughput counts
    make_items: Callable[[int, Path], list]  # (seed, output dir) -> item pool
    run: Callable                            # item -> outputs (the timed call)
    check: Callable                          # (item, outputs) -> Outcome
    warmup: Callable                         # item pool -> item run untimed first
    whole_pool: bool                         # stop only at pool boundaries
    trace_items: int | None                  # leading items one traced pass runs


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _route_outputs(c, st, rst, pq, pr, ks):
    return {
        "direct": [scattering.smatrix_direct(c, k).entries for k in ks],
        "st": [scattering.smatrix_st(st, k).entries for k in ks],
        "reverse_st": [scattering.smatrix_reverse_st(rst, k).entries for k in ks],
        "pqrs": [scattering.smatrix_pqrs(pq, k).entries for k in ks],
        "projector": [scattering.smatrix_projector(pr, k).entries for k in ks],
    }


def _check_routes(out: Outcome, A, B, ks, routes: dict, rebuilt: dict, tol: float) -> None:
    """Every route's S against the reference, and every rebuilt coupling's."""
    for t, k in enumerate(ks):
        s_ref = reference.smatrix(A, B, k)
        for route, values in routes.items():
            out.error(reference.smatrix_error(A, B, k, values[t], s_ref), tol,
                      f"S({k:.4g}) via {route}")
        for name, c in rebuilt.items():
            gap = float(np.max(np.abs(reference.smatrix(c.A, c.B, k) - s_ref)))
            out.error(gap, tol, f"coupling rebuilt from {name} at k={k:.4g}")


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------

SWEEP_POINTS = 20000
SWEEP_SAMPLE_ROWS = 32


@dataclass(frozen=True)
class SweepItem:
    idx: int
    preset: str
    scale: str
    k_min: float
    k_max: float
    points: int
    sample: tuple[int, ...]
    doc_path: Path
    csv_path: Path
    n: int = 5

    @property
    def units(self) -> int:
        return self.points


def make_sweep_items(seed: int, out_dir: Path, points: int = SWEEP_POINTS) -> list[SweepItem]:
    """Four CLI runs: each preset once on a log and once on a linear grid."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for idx, (preset, scale) in enumerate((("fig1", "log"), ("fig2", "linear"),
                                           ("fig2", "log"), ("fig1", "linear"))):
        if scale == "log":
            k_min, k_max = _log_uniform(rng, 1e-3, 1e-1), _log_uniform(rng, 1e1, 1e3)
        else:
            k_min, k_max = float(rng.uniform(0.01, 0.5)), float(rng.uniform(5.0, 50.0))
        rows = rng.choice(points, size=min(points, SWEEP_SAMPLE_ROWS) - 2, replace=False)
        sample = tuple(sorted({0, points - 1, *map(int, rows)}))
        items.append(SweepItem(idx, preset, scale, k_min, k_max, points, sample,
                               out_dir / f"sweep-{idx}.json", out_dir / f"sweep-{idx}.csv"))
    return items


def run_sweep(item: SweepItem) -> dict:
    """``qgvertex filter-demo --preset P > doc`` then ``qgvertex sweep doc ...``."""
    report = io.StringIO()
    with open(item.doc_path, "w", encoding="utf-8") as doc, \
            redirect_stdout(doc), redirect_stderr(report):
        rc_demo = cli.main(["filter-demo", "--preset", item.preset])
    rc_sweep = cli.main(["sweep", str(item.doc_path), "--k-min", repr(item.k_min),
                         "--k-max", repr(item.k_max), "--points", str(item.points),
                         "--scale", item.scale, "--out", str(item.csv_path)])
    return {"rc": (rc_demo, rc_sweep), "report": report.getvalue(),
            "csv_bytes": item.csv_path.stat().st_size if rc_sweep == 0 else 0}


def check_sweep(item: SweepItem, output: dict) -> Outcome:
    out = Outcome()
    if output["rc"] != (0, 0):
        out.problems.append(f"exit codes {output['rc']}")
        return out
    out.require("branching classification" in output["report"],
                "filter-demo printed no limits report")
    with open(item.doc_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    fp = filters.PRESETS[item.preset]
    sizes = fp.block_sizes
    out.require(doc.get("n") == fp.n and doc.get("blocks") == list(sizes),
                f"document declares n={doc.get('n')} blocks={doc.get('blocks')}")
    A = np.array([[complex(*z) for z in row] for row in doc["A"]])
    B = np.array([[complex(*z) for z in row] for row in doc["B"]])
    A_ref, B_ref = reference.uniform_block_pair(sizes, fp.p, fp.q, fp.r, fp.s)
    gap = float(np.max(np.abs(reference.smatrix(A, B, 1.0) - reference.smatrix(A_ref, B_ref, 1.0))))
    out.error(gap, SMALL_TOL, f"{item.preset} document against the preset coupling")
    ks = reference.k_grid(item.k_min, item.k_max, item.points, item.scale)
    problems, max_error = reference.check_sweep_csv(item.csv_path, A, B, sizes, ks,
                                                    item.sample, SMALL_TOL)
    out.problems += problems
    out.max_error = max(out.max_error, max_error)
    return out


# ---------------------------------------------------------------------------
# large-n-forms
# ---------------------------------------------------------------------------

LARGE_DEGREES = (60, 150)

#: couplings per rank-pair kind and degree; weighting n = 60 three to one
#: puts the median item and the 90th percentile each inside one item class,
#: so neither jumps between classes from run to run
LARGE_COPIES = {60: 3, 150: 1}


def large_rank_pairs(n: int) -> dict[str, tuple[int, int]]:
    return {
        "generic": (round(0.6 * n), round(0.8 * n)),
        "a-heavy": (round(0.9 * n), round(0.5 * n)),
        "rb=n": (round(0.7 * n), n),
        "scale-invariant": (round(0.4 * n), n - round(0.4 * n)),
    }


@dataclass(frozen=True, eq=False)
class CouplingItem:
    idx: int
    n: int
    r_a: int
    r_b: int
    A: np.ndarray
    B: np.ndarray
    ks: tuple[float, ...]
    units: int = 1


def _coupling_item(idx, n, r_a, r_b, rng) -> CouplingItem:
    c = sampling.random_coupling(n, r_a, r_b, rng)
    ks = tuple(_log_uniform(rng, 0.1, 10.0) for _ in range(3))
    return CouplingItem(idx, n, r_a, r_b, np.array(c.A), np.array(c.B), ks)


def make_large_items(seed: int, out_dir: Path) -> list[CouplingItem]:
    rng = np.random.default_rng(seed)
    specs = [(n, pair) for n in LARGE_DEGREES for pair in large_rank_pairs(n).values()
             for _ in range(LARGE_COPIES[n])]
    order = rng.permutation(len(specs))
    return [_coupling_item(idx, specs[j][0], *specs[j][1], rng) for idx, j in enumerate(order)]


def run_large(item: CouplingItem) -> dict:
    c = coupling.validate(item.A, item.B)
    st = forms.to_st_form(c)
    rst = forms.to_reverse_st_form(c)
    pq = forms.to_pqrs_form(c)
    pr = forms.to_projector_form(c)
    u = coupling.to_unitary(c)
    parsed = documents.loads(documents.dumps(documents.form_to_document(pq)))
    back = documents.as_coupling(parsed)
    return {"c": c, "st": st, "rst": rst, "pq": pq, "pr": pr, "u": u,
            "parsed": parsed, "back": back,
            "routes": _route_outputs(c, st, rst, pq, pr, item.ks)}


def _check_ranks(out: Outcome, item, c) -> None:
    out.require((c.r_a, c.r_b) == (item.r_a, item.r_b),
                f"validate found ranks {(c.r_a, c.r_b)}, generated {(item.r_a, item.r_b)}")


def check_large(item: CouplingItem, o: dict) -> Outcome:
    out = Outcome()
    _check_ranks(out, item, o["c"])
    pq, parsed = o["pq"], o["parsed"]
    out.require(parsed.perm == pq.perm and all(
        np.array_equal(getattr(parsed, b), getattr(pq, b)) for b in "PQRS"),
        "PQRS document round trip changed the form")
    rebuilt = {"st": forms.st_to_matrices(o["st"], LARGE_TOL),
               "reverse-st": forms.reverse_st_to_matrices(o["rst"], LARGE_TOL),
               "projector": forms.projector_to_matrices(o["pr"], LARGE_TOL),
               "pqrs document": o["back"]}
    _check_routes(out, item.A, item.B, item.ks, o["routes"], rebuilt, LARGE_TOL)
    out.error(reference.smatrix_error(item.A, item.B, 1.0, o["u"].U), LARGE_TOL,
              "to_unitary against S(1)")
    return out


# ---------------------------------------------------------------------------
# small-n-mix
# ---------------------------------------------------------------------------

SMALL_MAX_DEGREE = 6
DESIGN_GRID_POINTS = 41
EXPAND_ORDER = 3


@dataclass(frozen=True)
class DesignItem:
    idx: int
    n: int
    r_a: int
    r_b: int
    p: float
    q: float
    r: float
    s: float
    ks: tuple[float, ...]
    units: int = 1

    @property
    def params(self):
        return filters.FilterParams(self.n, self.r_a, self.r_b, self.p, self.q, self.r, self.s)


def make_small_items(seed: int, out_dir: Path) -> list:
    """One random coupling and one uniform-block design per rank pair, n <= 6,
    shuffled and interleaved coupling, design, coupling, ..."""
    rng = np.random.default_rng(seed)
    pairs = [(n, r_a, r_b) for n in range(1, SMALL_MAX_DEGREE + 1)
             for r_a, r_b in sampling.admissible_rank_pairs(n)]
    couplings, designs = [], []
    for j in rng.permutation(len(pairs)):
        couplings.append(_coupling_item(0, *pairs[j], rng))
    for j in rng.permutation(len(pairs)):
        n, r_a, r_b = pairs[j]
        p, q, r = (float(v) for v in rng.uniform(-3.0, 3.0, size=3))
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        lo, hi = _log_uniform(rng, 1e-3, 1e-1), _log_uniform(rng, 1e1, 1e3)
        ks = tuple(float(k) for k in np.logspace(np.log10(lo), np.log10(hi), DESIGN_GRID_POINTS))
        designs.append(DesignItem(0, n, r_a, r_b, p, q, r, s, ks))
    mixed = [item for pair in zip(couplings, designs) for item in pair]
    return [replace(item, idx=idx) for idx, item in enumerate(mixed)]


def _run_small_coupling(item: CouplingItem) -> dict:
    c = coupling.validate(item.A, item.B)
    st = forms.to_st_form(c)
    rst = forms.to_reverse_st_form(c)
    pq = forms.to_pqrs_form(c)
    pr = forms.to_projector_form(c)
    return {
        "c": c, "st": st, "rst": rst, "pq": pq, "pr": pr,
        "routes": _route_outputs(c, st, rst, pq, pr, item.ks),
        "high": scattering.limit_high_k(pq).entries,
        "low": scattering.limit_low_k(pq, allow_singular=True).entries,
        "series": scattering.expand(pq, "high-k", EXPAND_ORDER),
        "doc": documents.loads(documents.dumps(documents.form_to_document(c))),
    }


def _run_design(item: DesignItem) -> dict:
    fp = item.params
    out = {
        "label": filters.classify_branching(fp),
        "limits": filters.amplitude_limits(fp),
        "table": filters.probability_sweep(fp, item.ks),
        "strict_low_k_raised": False,
    }
    # with two or more edges in block 1 the S block s*F is singular, and the
    # closed-form k -> 0 limit refuses it with a typed error by design
    try:
        scattering.limit_low_k(filters.uniform_block_pqrs(fp))
    except errors.SingularSBlock:
        out["strict_low_k_raised"] = True
    return out


def run_small(item) -> dict:
    return _run_design(item) if isinstance(item, DesignItem) else _run_small_coupling(item)


def _check_small_coupling(item: CouplingItem, o: dict) -> Outcome:
    out = Outcome()
    _check_ranks(out, item, o["c"])
    rebuilt = {"st": forms.st_to_matrices(o["st"]),
               "reverse-st": forms.reverse_st_to_matrices(o["rst"]),
               "pqrs": forms.pqrs_to_matrices(o["pq"]),
               "projector": forms.projector_to_matrices(o["pr"])}
    _check_routes(out, item.A, item.B, item.ks, o["routes"], rebuilt, SMALL_TOL)
    for side in ("high", "low"):
        gap = float(np.max(np.abs(o[side] - reference.limit(item.A, item.B, side))))
        out.require(gap <= LIMIT_TOL, f"{side}-k limit misses the reference by {gap:.3e}")
    series = o["series"]
    out.require(np.allclose(series.coefficients[0], o["high"], rtol=0.0, atol=1e-12),
                "series C_0 differs from the high-k limit")
    k = 100.0 * max(1.0, series.spectral_radius)
    gap = float(np.max(np.abs(series.evaluate(k) - reference.smatrix(item.A, item.B, k))))
    out.require(gap <= SERIES_TOL, f"order-{series.order} series misses S({k:.3g}) by {gap:.3e}")
    doc = o["doc"]
    out.require(np.array_equal(doc.A, item.A) and np.array_equal(doc.B, item.B),
                "coupling document round trip changed A or B")
    return out


def _check_design(item: DesignItem, o: dict) -> Outcome:
    out = Outcome()
    sizes = item.params.block_sizes
    A, B = reference.uniform_block_pair(sizes, item.p, item.q, item.r, item.s)
    table = o["table"]
    out.require(table.block_sizes == sizes and np.array_equal(table.ks, item.ks),
                "probability_sweep returned another grid or block layout")
    problems, max_error = reference.check_probabilities(
        table.probabilities, item.ks, A, B, range(len(item.ks)), SMALL_TOL)
    out.problems += problems
    out.max_error = max(out.max_error, max_error)

    limits = o["limits"]
    out.require(not limits.mismatches, f"closed forms disagree: {limits.mismatches}")
    for side in ("high", "low"):
        want = reference.block_means(np.abs(reference.limit(A, B, side)), sizes)
        got = {}
        for (mu, nu), v in getattr(limits, f"{side}_k").items():
            got[f"b{mu}{nu}"] = v
        for mu, v in getattr(limits, f"{side}_k_reflection").items():
            got[f"b{mu}{mu}_refl"] = v
        for mu, v in getattr(limits, f"{side}_k_intra").items():
            got[f"b{mu}{mu}_intra"] = v
        out.require(got.keys() == want.keys(), f"{side}-k limits cover other block pairs")
        gap = max((abs(got[key] - float(want[key])) for key in got.keys() & want.keys()),
                  default=0.0)
        out.require(gap <= LIMIT_TOL, f"{side}-k block amplitudes miss the reference by {gap:.3e}")

    out.require(o["label"] in (filters.DELTA_DELTA_DELTAPRIME, filters.DELTA_DELTAPRIME_DELTAPRIME,
                               filters.NO_BRANCHING), f"unknown branching label {o['label']!r}")
    if 0 in sizes:
        out.require(o["label"] == filters.NO_BRANCHING,
                    f"label {o['label']!r} for a design with an empty block")
    singular = sizes[0] >= 2
    out.require(o["strict_low_k_raised"] == singular,
                f"strict low-k limit raised={o['strict_low_k_raised']} with m={sizes[0]}")
    out.expected_errors = int(o["strict_low_k_raised"] and singular)
    return out


def check_small(item, output: dict) -> Outcome:
    if isinstance(item, DesignItem):
        return _check_design(item, output)
    return _check_small_coupling(item, output)


WORKLOADS = {
    "cli-sweep": Workload(
        name="cli-sweep",
        why="many k for one coupling through the CLI: S(k) at every k-point, block "
            "aggregation and CSV output; form conversion does almost nothing",
        unit="k-points/s",
        make_items=make_sweep_items,
        run=run_sweep,
        check=check_sweep,
        warmup=lambda items: replace(items[0], points=200, sample=(0, 199)),
        whole_pool=False,
        trace_items=2,
    ),
    "large-n-forms": Workload(
        name="large-n-forms",
        why="form conversion at n = 60 and 150: hundreds of rank SVDs per coupling and "
            "only a handful of S(k) calls, so the sweep path is idle",
        unit="items/s",
        make_items=make_large_items,
        run=run_large,
        check=check_large,
        warmup=lambda items: next(i for i in items if i.n == min(LARGE_DEGREES)),
        whole_pool=True,
        trace_items=None,
    ),
    "small-n-mix": Workload(
        name="small-n-mix",
        why="many small couplings and filter designs, each evaluated at a few k: per-call "
            "overhead and small JSON documents dominate",
        unit="items/s",
        make_items=make_small_items,
        run=run_small,
        check=check_small,
        warmup=lambda items: items[0],
        whole_pool=True,
        trace_items=None,
    ),
}
