"""A bounded fuzz test of the typed-error contract.

Every call either returns a finite S(k) whose columns of |S(k)|^2 sum to 1
within ``linalg.SMATRIX_ATOL``, or raises a ``VertexError``, ``ValueError`` or
``TypeError``; a document either parses or raises a ``VertexError``, and the CLI
prints one error line.  The suite turns warnings into errors, so a ``RuntimeWarning``
that escapes fails the test too.  The draws are derandomized and few, so the
test is deterministic and takes about two seconds.
"""

import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from qgvertex import (
    FIG1_PARAMS,
    FilterParams,
    classify_branching,
    documents,
    expand,
    limit_high_k,
    limit_low_k,
    linalg,
    pqrs_to_matrices,
    probability_sweep,
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
from qgvertex.cli import main
from qgvertex.errors import SeriesDivergence, VertexError
from qgvertex.filters import pair_sweep
from qgvertex.forms import ProjectorForm

from test_coupling import far_scale_coupling, float_limit_pair
from test_scattering import RECORD_READERS, broken_records

TYPED = (VertexError, ValueError, TypeError)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

#: float limits and their neighbours: signed zeros, subnormals, the largest
#: finite float, infinities and NaN
EXTREMES = [0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 1e-200, 1e-17, 1e-3, 1.0, 1.7, 1e3, 1e17,
            1e200, 1.7976931348623157e308, np.inf, -np.inf, np.nan, -1.0]
numbers = st.one_of(st.sampled_from(EXTREMES), st.floats())
scales = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300, 1.7e308])


@st.composite
def admissible_pairs(draw):
    """A random admissible pair of degree n <= 4, A and B each scaled by a drawn factor
    (a real factor keeps A B* Hermitian and the ranks, so the pair stays admissible)."""
    n = draw(st.integers(1, 4))
    r_a = draw(st.integers(0, n))
    r_b = draw(st.integers(n - r_a, n))
    c = random_coupling(n, r_a, r_b, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    scale_a, scale_b = draw(scales), draw(scales)
    with np.errstate(over="ignore", under="ignore"):
        return scale_a * np.asarray(c.A), scale_b * np.asarray(c.B)


@st.composite
def raw_pairs(draw):
    """Two matrices of degree n <= 3 with entries at the float limits, as float,
    complex, int or bool arrays."""
    n = draw(st.integers(1, 3))
    a, b = (np.array(draw(st.lists(st.sampled_from(EXTREMES), min_size=n * n, max_size=n * n)))
            .reshape(n, n) for _ in range(2))
    dtype = draw(st.sampled_from([float, complex, int, bool]))
    with np.errstate(invalid="ignore"):  # inf * 1j, and casts of 1.8e308 to int
        if dtype is complex:
            a = a + 1j * a[::-1]
        elif dtype is not float:
            a, b = (np.nan_to_num(m, posinf=1.0, neginf=-1.0).astype(dtype) for m in (a, b))
    return a, b


pairs = st.one_of(admissible_pairs(), raw_pairs())
grids = st.one_of(st.lists(numbers, max_size=4),
                  st.sampled_from([[1e-300, 1e300], [1e-17, 1.0], [1.0, 1e17], [0.5, 2.0]]))
block_sizes = st.one_of(
    st.none(),
    st.tuples(*[st.integers(-1, 4)] * 3),
    st.sampled_from([(np.int64(1), 1, 1), (1.5, 1, 1), (True, True, True), (1, 1), (1, 1, 1, 0), "111"]),
)


def assert_unitary(s, where) -> None:
    s = np.asarray(s)
    assert np.isfinite(s).all(), where
    defect = np.max(np.abs((np.abs(s) ** 2).sum(axis=-2) - 1.0), initial=0.0)
    assert defect <= linalg.SMATRIX_ATOL, (where, defect)


def pair(c) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(c.A), np.asarray(c.B)


#: pairs of the faults this test has found, kept as explicit examples: a subnormal
#: pair (the Hermitian test overflowed), one whose form routes lost unitarity far
#: from its scale, the same scaled near the float limits (the ST reduction
#: overflowed), a degree-1 pair whose ST block S overflows, and a pair whose
#: largest part is 1.5e308 (the rank SVD met an infinite modulus and validate
#: refused it as RankDeficient; the direct route and the sweeps refused it with the
#: guard's error, as A + ikB overflowed, until the solve shifted its pair)
SUBNORMAL = (1e-310 * np.eye(2), np.zeros((2, 2)))
FAR_SCALE = pair(far_scale_coupling())
HUGE = (1e300 * FAR_SCALE[0], 1e300 * FAR_SCALE[1])
DEGREE_ONE = pair(random_coupling(1, 1, 1, np.random.default_rng(1)))
UNEVEN = (1e150 * DEGREE_ONE[0], 1e-300 * DEGREE_ONE[1])
FLOAT_LIMIT = float_limit_pair(random_coupling(3, 3, 3, np.random.default_rng(2)), 1.5e308)
FIG1_LIMIT = float_limit_pair(pqrs_to_matrices(uniform_block_pqrs(FIG1_PARAMS)), 1.5e308)
#: pairs whose series coefficients overflow: w^2 of the first (|w| = 1.4e200) and 1/w
#: of the second (w = 5.4e-321); expand warned and returned them infinite
SERIES_PAIR = pair(random_coupling(2, 2, 2, np.random.default_rng(0)))
HUGE_W = (1e100 * SERIES_PAIR[0], 1e-100 * SERIES_PAIR[1])
TINY_W = (1e-160 * SERIES_PAIR[0], 1e160 * SERIES_PAIR[1])

ROUTES = {
    "direct": lambda c, k: smatrix_direct(c, k),
    "st": lambda c, k: smatrix_st(to_st_form(c), k),
    "reverse st": lambda c, k: smatrix_reverse_st(to_reverse_st_form(c), k),
    "pqrs": lambda c, k: smatrix_pqrs(to_pqrs_form(c), k),
    "projector": lambda c, k: smatrix_projector(to_projector_form(c), k),
    "high-k limit": lambda c, k: limit_high_k(to_pqrs_form(c)),
    "low-k limit": lambda c, k: limit_low_k(to_pqrs_form(c)),
}


@FUZZ
@given(pair=pairs, k=numbers)
@example(pair=SUBNORMAL, k=1.0)
@example(pair=FAR_SCALE, k=1e-17)
@example(pair=FAR_SCALE, k=1e17)
@example(pair=HUGE, k=1.0)
@example(pair=UNEVEN, k=1.0)
@example(pair=FLOAT_LIMIT, k=1.0)
def test_validate_routes_and_limits(pair, k):
    try:
        c = validate(*pair)
    except TYPED:
        return
    for name, route in ROUTES.items():
        try:
            s = route(c, k)
        except TYPED:
            continue
        assert_unitary(s.entries, (name, k))


@FUZZ
@given(pair=pairs, ks=grids, sizes=block_sizes)
@example(pair=FLOAT_LIMIT, ks=[0.5, 2.0], sizes=None)
@example(pair=FIG1_LIMIT, ks=[1e-17, 1.0, 1e17], sizes=(2, 2, 1))
def test_pair_sweep(pair, ks, sizes):
    try:
        c = validate(*pair)
        table = pair_sweep(c.A, c.B, ks, sizes)
    except TYPED:
        return
    rows = np.concatenate([block[:, table.columns] for block in table.rows()])
    assert rows.shape == (len(table.ks), len(table.header()))
    assert_unitary(np.sqrt(table.probabilities), ("pair_sweep", ks, sizes))


@FUZZ
@given(pair=admissible_pairs(), kind=st.sampled_from(["high-k", "low-k"]), order=st.integers(0, 4),
       k=numbers)
@example(pair=pair(random_coupling(3, 3, 3, np.random.default_rng(2))), kind="high-k", order=3,
         k=1e-150)  # a Python complex power raised OverflowError
@example(pair=pair(random_coupling(3, 3, 3, np.random.default_rng(2))), kind="low-k", order=3,
         k=1e200)
@example(pair=HUGE_W, kind="high-k", order=2, k=1.0)
@example(pair=TINY_W, kind="low-k", order=1, k=1.0)
def test_series(pair, kind, order, k):
    """A series evaluates to a finite matrix or raises a typed error; outside its
    convergence region it also warns, which is its contract."""
    try:
        series = expand(to_pqrs_form(validate(*pair)), kind, order)
    except TYPED:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeriesDivergence)
        try:
            total = series.evaluate(k)
        except TYPED:
            return
    assert np.isfinite(total).all(), (kind, order, k)


@FUZZ
@given(n=st.integers(-1, 5), r_a=st.integers(-1, 5), r_b=st.integers(-1, 5),
       constants=st.tuples(*[numbers] * 4), ks=grids, threshold=numbers)
@example(n=1, r_a=1, r_b=1, constants=(0.0, 0.0, 0.0, 1.7976931348623157e308), ks=[1.0],
         threshold=np.nan)  # the split's H overflowed; a NaN threshold was accepted
@example(n=5, r_a=3, r_b=4, constants=(1.0, np.float64(1e155), 1.0, 1.0), ks=[1.0],
         threshold=3.0)  # q**2 of a numpy constant warned before the closed forms' refusal
def test_designs(n, r_a, r_b, constants, ks, threshold):
    try:
        fp = FilterParams(n, r_a, r_b, *constants)
    except TYPED:
        return
    with contextlib.suppress(*TYPED):
        assert_unitary(np.sqrt(probability_sweep(fp, ks).probabilities), ("probability_sweep", fp))
    if not threshold > 1.0:
        with pytest.raises(ValueError, match="dominance threshold must exceed 1"):
            classify_branching(fp, threshold)
    with contextlib.suppress(*TYPED):
        classify_branching(fp, threshold)


@st.composite
def form_records(draw):
    """A form record of a random coupling of degree n <= 4, rebuilt with a drawn number,
    real or imaginary, added to a drawn entry of a drawn block: a record built directly,
    whose identities may not hold."""
    n = draw(st.integers(1, 4))
    r_a = draw(st.integers(0, n))
    r_b = draw(st.integers(n - r_a, n))
    c = random_coupling(n, r_a, r_b, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    record = documents.FORM_KINDS[draw(st.sampled_from(["st", "reverse-st", "pqrs", "projector"]))
                                  ].from_coupling(c)
    blocks = {f.name: np.array(getattr(record, f.name)) for f in dataclasses.fields(record)
              if isinstance(getattr(record, f.name), np.ndarray) and getattr(record, f.name).size}
    assume(blocks)  # an ST form of rank 0 has none
    name = draw(st.sampled_from(sorted(blocks)))
    rows, cols = blocks[name].shape
    with np.errstate(invalid="ignore"):  # inf * 1j
        blocks[name][draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] += (
            draw(numbers) * draw(st.sampled_from([1.0, 1j])))
    try:
        return dataclasses.replace(record, **{name: blocks[name]})
    except TYPED:  # an inf or NaN entry is refused at construction
        assume(False)


def identities_hold(record) -> bool:
    """The identities of a form record, checked within 100 times the routes' tolerance:
    S Hermitian, or three projectors summing to I with proj_c idempotent and proj_c lam
    proj_c Hermitian."""
    tol = 100 * linalg.DEFAULT_ATOL
    hermitian = lambda m: linalg.max_norm(m - m.conj().T) <= tol * linalg.max_norm(m)
    if not isinstance(record, ProjectorForm):
        return hermitian(np.asarray(record.S))
    p, q, c, lam = (np.asarray(m) for m in (record.projector_p, record.projector_q,
                                            record.projector_c, record.lam))
    return (linalg.max_norm(p + q + c - np.eye(record.n)) <= tol
            and linalg.max_norm(c @ c - c) <= tol and hermitian(c @ lam @ c))


#: records with one identity broken: the PQRS route and limits returned the S(k) of the PQRS
#: record's Hermitian part, the guard refused the ST record and 2 proj_p blaming the momentum,
#: and a projector split without checks returns an S(k) for 1.5 proj_c and for the lam record
BROKEN = broken_records()


@FUZZ
@given(record=form_records())
@example(record=BROKEN["pqrs"])
@example(record=BROKEN["st"])
@example(record=BROKEN["2 proj_p"])
@example(record=BROKEN["1.5 proj_c"])
@example(record=BROKEN["lam"])
def test_form_records(record):
    """Every route, limit and series that reads a record returns a finite unitary S, or
    finite coefficients, only when the record's own identities hold, and otherwise
    raises a typed error."""
    for read in RECORD_READERS[type(record)]:
        try:
            result = read(record)
        except TYPED:
            continue
        assert identities_hold(record), (record, read)
        if hasattr(result, "coefficients"):
            assert np.isfinite(result.coefficients).all()
        else:
            assert_unitary(result.entries, (record, read))


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_line_error(code, out, err, argv) -> None:
    assert code in (1, 2) and out == "", (argv, code, out)
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.fixture(scope="module")
def document_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(pair=admissible_pairs(), k_min=numbers, k_max=numbers, points=st.integers(-1, 4),
       scale=st.sampled_from(["log", "linear"]), blocks=st.sampled_from(["", "1,1,1", "1,1", "-1,2,2", "1.5,1,1", "a"]),
       k=numbers)
@example(pair=FAR_SCALE, k_min=5e-324, k_max=1.7976931348623157e308, points=2, scale="log",
         blocks="", k=1e14)  # the log grid overflowed; S(1e14) was not unitary
@example(pair=FIG1_LIMIT, k_min=0.1, k_max=10.0, points=3, scale="log", blocks="2,2,1", k=1.0)
def test_cli_sweep_and_smatrix(document_dir, pair, k_min, k_max, points, scale, blocks, k):
    try:
        c = validate(*pair)
    except TYPED:
        return
    path = document_dir / "coupling.json"
    path.write_text(documents.dumps(documents.coupling_to_document(c)), encoding="utf-8")
    argv = ["sweep", str(path), f"--k-min={k_min!r}", f"--k-max={k_max!r}", f"--points={points}",
            f"--scale={scale}"] + ([f"--blocks={blocks}"] if blocks else [])
    code, out, err = run(argv)
    if code:
        assert_one_line_error(code, out, err, argv)
    else:
        body = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
        assert_unitary(np.sqrt(body[:, 1:1 + c.n * c.n].reshape(-1, c.n, c.n)), argv)
    argv = ["smatrix", str(path), f"--k={k!r}"]
    code, out, err = run(argv)
    if code:
        assert_one_line_error(code, out, err, argv)
    else:
        assert_unitary(documents.matrix_from_json(json.loads(out)["S"], (c.n, c.n), "S"), argv)


@FUZZ
@given(n=st.integers(0, 5), r_a=st.integers(0, 5), r_b=st.integers(0, 5),
       constants=st.tuples(*[numbers] * 4), threshold=numbers)
@example(n=4, r_a=3, r_b=3, constants=(1.7976931348623157e308, 0.0, 1.0, 5e-324),
         threshold=3.0)  # assembling (A, B) overflowed
def test_cli_filter_demo(n, r_a, r_b, constants, threshold):
    argv = ["filter-demo", f"--n={n}", f"--ra={r_a}", f"--rb={r_b}",
            *(f"--{name}={value!r}" for name, value in zip("pqrs", constants)),
            f"--threshold={threshold!r}"]
    code, out, err = run(argv)
    if code:
        assert_one_line_error(code, out, err, argv)
    else:
        assert json.loads(out)["blocks"] == list(FilterParams(n, r_a, r_b, *constants).block_sizes)


#: one document of each kind for a small coupling, the seeds of the document draws
SEED_COUPLING = random_coupling(3, 2, 2, np.random.default_rng(8))
SEED_DOCUMENTS = [documents.coupling_to_document(SEED_COUPLING, label="seed", blocks=(1, 1, 1))]
SEED_DOCUMENTS += [documents.form_to_document(kind.from_coupling(SEED_COUPLING))
                   for kind in documents.FORM_KINDS.values()]

#: JSON values of every type, nested a few levels: wrong types for any key
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from([2**62, 10**30, -2**63])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def nested(value, depth: int):
    """``value`` inside ``depth`` one-element lists."""
    for _ in range(depth):
        value = [value]
    return value


@st.composite
def drawn_documents(draw):
    """A seed document with one key set to a drawn JSON value, nested deeply or
    removed, or a drawn JSON value in place of the whole document."""
    doc = dict(draw(st.sampled_from(SEED_DOCUMENTS)))
    key = draw(st.sampled_from([*doc, "form", "n", "extra"]))
    action = draw(st.sampled_from(["set", "nest", "remove", "whole"]))
    if action == "set":
        doc[key] = draw(json_values)
    elif action == "nest":
        doc[key] = nested(doc.get(key), draw(st.sampled_from([1, 3, 50, 900])))
    elif action == "remove":
        doc.pop(key, None)
    else:
        doc = draw(json_values)
    return doc


@FUZZ
@given(doc=drawn_documents(), depth=st.sampled_from([0, 2000, 100000]))
@example(doc={"form": "st", "n": 2**62, "r_b": 1, "permutation": [1], "S": [], "T": []}, depth=0)
def test_documents(document_dir, doc, depth):
    """``loads`` and ``parse_document`` return a record or raise a ``VertexError``; CLI
    ``validate`` and ``convert`` exit 0 or print one error line and exit 1 or 2.
    ``depth`` wraps the JSON text in that many more arrays."""
    text = "[" * depth + json.dumps(doc) + "]" * depth
    for parse, arg in ((documents.loads, text), (documents.parse_document, doc)):
        if parse is documents.parse_document and depth:
            continue
        with contextlib.suppress(VertexError):
            parse(arg)
    path = document_dir / "drawn.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate", str(path)], ["convert", str(path), "--to", "pqrs"]):
        code, out, err = run(argv)
        if code:
            assert_one_line_error(code, out, err, argv)
