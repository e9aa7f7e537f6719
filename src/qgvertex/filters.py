"""Uniform-block couplings and spectral branching filters.

A vertex of degree n with ranks (r_a, r_b) splits its edges into three
blocks of sizes m = r_a + r_b - n, n - r_a and n - r_b (labels 1, 2, 3).
Filling each PQRS block with a single real constant,

    P = p F,   Q = q F,   R = r F,   S = s F,

with F the all-ones matrix of the appropriate size, gives a coupling whose
block-to-block scattering amplitudes have closed forms at both momentum
limits.  Tuning p, q, r routes low-k and high-k particles into different
blocks, which is the spectral-branching-filter design reproduced by the
``fig1`` and ``fig2`` presets.

For m > 1 the block S = s F is rank one, hence singular, while the unique
PQRS decomposition assumes a regular S.  Such couplings are accepted here:
scattering and the high-k limit never need S^{-1}, and the exact low-k
limit is obtained from the singular-aware limit routine.  The closed-form
low-k amplitudes correspond to the regular-S limit expression; they still
agree with the exact limit on all cross-block entries (the correction is
confined to the diagonal block of the first edge block), and any
disagreement with the matrix limits is reported, never reconciled
silently.

A momentum sweep (``pair_sweep``) of a pair with the blocks' symmetry computes
one value per orbit of index pairs (``_orbit_members``), from a b x b quotient
S(k) and one scalar per block of two or more edges, and of any other pair each
|S_ij|^2; ``SweepTable.from_values`` keeps those values and the map the CSV reads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coupling import _require_record, _smatrix_grid
from .errors import InvalidShape, ShapeMismatch, SingularSBlock
from .forms import PQRSForm, _once_per_record, _pqrs_pair, block_sizes
from .scattering import limit_high_k, limit_low_k

#: default dominance ratio of probabilities used to read ">>" in a design
DEFAULT_DOMINANCE = 3.0

#: tolerance for closed-form vs matrix-limit agreement reports
CLOSED_FORM_TOL = 1e-6

#: momenta per batched solve and per row block of a sweep table; a long
#: sweep then holds the complex temporaries and the float array of one block only
SWEEP_BLOCK = 1024


@dataclass(frozen=True)
class FilterParams:
    """Uniform-block design parameters (all block constants real)."""

    n: int
    r_a: int
    r_b: int
    p: float
    q: float
    r: float
    s: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidShape(f"vertex degree must be positive, got {self.n}")
        m = self.block_sizes[0]
        if not np.isfinite([self.p, self.q, self.r, self.s]).all():
            raise ValueError(f"block constants must be finite, got {self}")
        if m > 0 and self.s == 0.0:
            raise SingularSBlock("s must be nonzero when the S block is nonempty")

    @property
    def block_sizes(self) -> tuple[int, int, int]:
        return block_sizes(self.n, self.r_a, self.r_b)


FIG1_PARAMS = FilterParams(n=5, r_a=3, r_b=4, p=2.5, q=1.2, r=0.0, s=3.0)
FIG2_PARAMS = FilterParams(n=5, r_a=3, r_b=4, p=0.0, q=1.2, r=2.1, s=0.2)
PRESETS = {"fig1": FIG1_PARAMS, "fig2": FIG2_PARAMS}

DELTA_DELTA_DELTAPRIME = "delta-delta-deltaprime"
DELTA_DELTAPRIME_DELTAPRIME = "delta-deltaprime-deltaprime"
NO_BRANCHING = "none"


@_once_per_record
def uniform_block_pqrs(fp: FilterParams) -> PQRSForm:
    """PQRS form of blocks p, q, r, s times all-ones, identity numbering; built once per design."""
    _require_record(fp, FilterParams)
    blocks = {name: linalg.frozen(getattr(fp, name.lower()) * np.ones(shape, dtype=complex))
              for name, shape in PQRSForm.layout(fp.n, fp.r_a, fp.r_b).items()}
    return PQRSForm(fp.n, fp.r_a, fp.r_b, tuple(range(fp.n)), **blocks)


@functools.cache
def _orbit_members(sizes: tuple[int, int, int]) -> dict[tuple[int, int, str], list[int]]:
    """The orbits of the index pairs under the swaps of edges inside each block: the
    row-major flat indices of each, keyed (mu, nu, kind) by its blocks mu and nu in CSV
    column order, with kind "" for a cross block, "_refl" for a diagonal block's
    diagonal and "_intra" for its off-diagonal.  Cached: callers only read it."""
    blk = [mu for mu, size in zip((1, 2, 3), sizes) for _ in range(size)]
    members = {}  # keys first seen in row-major order come in CSV column order
    for pair, (mu, nu) in enumerate(itertools.product(blk, repeat=2)):
        kind = "" if mu != nu else "_intra" if pair % (len(blk) + 1) else "_refl"
        members.setdefault((mu, nu, kind), []).append(pair)
    return members


def _block_means(flat: np.ndarray, orbits: dict) -> dict:
    """Mean of the columns of ``flat`` (shape (..., c)) that each of ``orbits`` lists,
    under its key.  ``take`` gathers each orbit into a C-order copy, so each row of a
    stack sums in the order of a single row, and sum / count is the arithmetic of
    ``mean`` without its per-call overhead."""
    return {key: flat.take(cols, axis=-1).sum(axis=-1) / len(cols) for key, cols in orbits.items()}


@dataclass(frozen=True)
class LimitMismatch:
    """Closed-form value disagreeing with the matrix limit for one block pair."""

    side: str  # "high-k" or "low-k"
    pair: tuple[int, int]
    closed_form: float
    matrix_limit: float


@dataclass(frozen=True)
class AmplitudeLimits:
    """Block-to-block amplitude magnitudes of both momentum limits.

    ``high_k`` / ``low_k`` hold the cross-block values |S_{mu nu}| taken
    from the matrix limits; ``*_reflection`` the diagonal magnitudes and
    ``*_intra`` the within-block off-diagonal ones (blocks of size >= 2).
    ``closed_form_high`` / ``closed_form_low`` are the closed-form
    expressions for the pairs (1,2), (2,3), (3,1); entries disagreeing
    with the matrix limits beyond tolerance are listed in ``mismatches``.
    """

    l_p: int
    l_q: int
    l_r: int
    high_k: dict[tuple[int, int], float]
    low_k: dict[tuple[int, int], float]
    high_k_reflection: dict[int, float]
    low_k_reflection: dict[int, float]
    high_k_intra: dict[int, float]
    low_k_intra: dict[int, float]
    closed_form_high: dict[tuple[int, int], float]
    closed_form_low: dict[tuple[int, int], float]
    mismatches: tuple[LimitMismatch, ...]


def amplitude_limits(fp: FilterParams) -> AmplitudeLimits:
    """Evaluate both limit tables and check the closed forms against them to ``CLOSED_FORM_TOL``."""
    _require_record(fp, FilterParams)
    m, na, nb = fp.block_sizes
    form = uniform_block_pqrs(fp)
    high, low = limit_high_k(form), limit_low_k(form, allow_singular=True)
    hi, lo = np.abs(np.asarray(high.entries)), np.abs(np.asarray(low.entries))

    l_p, l_q, l_r = nb * m, nb * na, na * m
    try:  # a float power raises OverflowError, where a product turns inf
        g = fp.q - m * fp.r * fp.p
        denom_hi = 1.0 + l_p * fp.p**2 + l_q * g**2
        denom_lo = 1.0 + l_r * fp.r**2 + l_q * fp.q**2
    except OverflowError:
        denom_hi = denom_lo = math.inf
    if not (math.isfinite(denom_hi) and math.isfinite(denom_lo)):
        raise ValueError(f"block constants of {fp} too large: the closed-form "
                         "limit amplitudes overflow")
    closed_candidates_high = {
        (1, 2): 2.0 * nb * abs(fp.p) * abs(g) / denom_hi,
        (2, 3): 2.0 * abs(g) / denom_hi,
        (3, 1): 2.0 * abs(fp.p) / denom_hi,
    }
    closed_candidates_low = {
        (1, 2): 2.0 * abs(fp.r) / denom_lo,
        (2, 3): 2.0 * abs(fp.q) / denom_lo,
        (3, 1): 2.0 * na * abs(fp.r) * abs(fp.q) / denom_lo,
    }

    tables = {"": ({}, {}), "_refl": ({}, {}), "_intra": ({}, {})}  # (high-k, low-k)
    flat = np.stack([hi, lo]).reshape(2, -1)
    for (mu, nu, kind), means in _block_means(flat, _orbit_members(fp.block_sizes)).items():
        for table, mean in zip(tables[kind], means):
            table[(mu, nu) if mu != nu else mu] = float(mean)
    (high_k, low_k), (high_refl, low_refl), (high_intra, low_intra) = tables.values()

    closed_high = {p: v for p, v in closed_candidates_high.items() if p in high_k}
    closed_low = {p: v for p, v in closed_candidates_low.items() if p in low_k}
    mismatches = [LimitMismatch(side, pair, value, table[pair])
                  for side, closed, table in (("high-k", closed_high, high_k),
                                              ("low-k", closed_low, low_k))
                  for pair, value in closed.items() if abs(value - table[pair]) > CLOSED_FORM_TOL]
    return AmplitudeLimits(
        l_p=l_p, l_q=l_q, l_r=l_r,
        high_k=high_k, low_k=low_k,
        high_k_reflection=high_refl, low_k_reflection=low_refl,
        high_k_intra=high_intra, low_k_intra=low_intra,
        closed_form_high=closed_high, closed_form_low=closed_low,
        mismatches=tuple(mismatches),
    )


def classify_branching(fp: FilterParams, threshold: float = DEFAULT_DOMINANCE) -> str:
    """Branching label from the dominance pattern of ``amplitude_limits(fp)``.

    ``threshold`` is the required ratio of probabilities (squared
    amplitudes) for reading one channel as dominating another.  Couplings
    whose three blocks are not all nonempty carry no tripartite label.  The
    limits come from the design's one cached split (``uniform_block_pqrs``),
    so classifying after ``amplitude_limits`` factorises nothing again.
    """
    _require_record(fp, FilterParams)
    if not threshold > 1.0:  # NaN too
        raise ValueError(f"dominance threshold must exceed 1, got {threshold!r}")
    if any(size == 0 for size in fp.block_sizes):
        return NO_BRANCHING
    limits = amplitude_limits(fp)
    hi12, hi23, hi31 = (limits.high_k[p] ** 2 for p in ((1, 2), (2, 3), (3, 1)))
    lo12, lo23, lo31 = (limits.low_k[p] ** 2 for p in ((1, 2), (2, 3), (3, 1)))
    floor = 1e-24  # a dominant channel must carry actual probability
    if (min(hi31, hi12) >= max(threshold * hi23, floor)
            and lo23 >= max(threshold * max(lo31, lo12), floor)):
        return DELTA_DELTA_DELTAPRIME
    if (hi23 >= max(threshold * max(hi12, hi31), floor)
            and min(lo12, lo31) >= max(threshold * lo23, floor)):
        return DELTA_DELTAPRIME_DELTAPRIME
    return NO_BRANCHING


# ---------------------------------------------------------------------------
# Momentum sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepTable:
    """|S_ij(k)|^2 on a momentum grid, one value per orbit.

    A CSV row (``header``) is k, each |S_ij|^2 in row-major order and, given
    ``block_sizes``, one mean per orbit of ``_orbit_members``.  ``values`` holds k and
    each orbit's value once per row, and ``columns``, the orbit map, the value column
    of each CSV column: a CSV row is ``values[i, columns]``.
    """

    values: np.ndarray  # (len(ks), 1 + orbits), float
    columns: np.ndarray  # (len(header()),) int
    block_sizes: tuple[int, int, int] | None

    @classmethod
    def from_values(cls, values: np.ndarray, pair_columns, block_sizes) -> SweepTable:
        """The table of ``values``, k and then value columns, in which index pair p
        (row-major) reads value column ``pair_columns[p]``.  Given ``block_sizes``, an
        orbit of ``_orbit_members`` whose pairs all read one column reuses it; any other
        gets a column of their mean (``_block_means``).  The table's values are floats."""
        columns, means = [0, *pair_columns], {}
        for key, pairs in ({} if block_sizes is None else _orbit_members(block_sizes)).items():
            read = [pair_columns[pair] for pair in pairs]
            if len(set(read)) == 1:
                columns.append(read[0])
            else:
                columns.append(values.shape[1] + len(means))
                means[key] = read
        if means:
            values = np.column_stack([values, *_block_means(values, means).values()])
        return cls(values.astype(float, copy=False), np.array(columns), block_sizes)

    @property
    def ks(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def _n(self) -> int:  # the block sizes' sum, else the root of the pair columns' count
        return math.isqrt(len(self.columns) - 1) if self.block_sizes is None else sum(self.block_sizes)

    @property
    def probabilities(self) -> np.ndarray:
        """|S_ij(k)|^2, shape (len(ks), n, n), gathered from ``values``."""
        return self.values[:, self.columns[1:1 + self._n ** 2].reshape(self._n, self._n)]

    def header(self) -> list[str]:
        blocks = [] if self.block_sizes is None else [
            f"b{mu}{nu}{kind}" for mu, nu, kind in _orbit_members(self.block_sizes)]
        return ["k"] + [f"S{i + 1}{j + 1}" for i, j in np.ndindex(self._n, self._n)] + blocks

    def rows(self):
        """Yield ``values`` in blocks of ``SWEEP_BLOCK`` rows, one momentum per row;
        ``block[:, columns]`` are their CSV rows."""
        for start in range(0, len(self.values), SWEEP_BLOCK):
            yield self.values[start:start + SWEEP_BLOCK]


def pair_sweep(A, B, ks, block_sizes: tuple[int, int, int] | None) -> SweepTable:
    """|S_ij(k)|^2 of the pair (A, B) over the ascending positive grid ``ks``.

    ``block_sizes``, when given, are three non-negative integers summing to
    n; the table then carries one aggregate per orbit of ``_orbit_members``, and if
    (A, B) has the blocks' symmetry on those orbits, each orbit of index pairs gets one
    value, from the quotient (``_quotient_sweep``).  Otherwise each pair is its own
    value column, the batched solve's |S_ij|^2 bit for bit.  A column of |S(k)|^2 that
    misses 1 by more than ``linalg.SMATRIX_ATOL`` raises ValueError (``_smatrix_grid``).
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or ks.size < 1:
        raise ValueError("k_grid must be a non-empty 1-d array")
    if not np.isfinite(ks).all():
        raise ValueError("k_grid must be finite")
    if ks[0] <= 0.0 or (ks[1:] <= ks[:-1]).any():
        raise ValueError("k_grid must be strictly positive and ascending")
    n = A.shape[0]
    if block_sizes is not None:
        block_sizes = tuple(map(operator.index, block_sizes))
        if len(block_sizes) != 3 or sum(block_sizes) != n or any(b < 0 for b in block_sizes):
            raise ShapeMismatch(f"block sizes must be three values summing to n={n}")
    quotient = None if block_sizes is None else _quotient_sweep(A, B, block_sizes)
    orbit_rows, pair_columns = quotient or (  # else each pair is its own value column
        lambda k: np.abs(_smatrix_grid(A, B, k)).reshape(len(k), -1) ** 2, range(1, n * n + 1))
    values = np.empty((ks.size, 1 + max(pair_columns)))
    values[:, 0] = ks
    for start in range(0, ks.size, SWEEP_BLOCK):
        values[start:start + SWEEP_BLOCK, 1:] = orbit_rows(ks[start:start + SWEEP_BLOCK])
    return SweepTable.from_values(values, pair_columns, block_sizes)


def _quotient_sweep(A, B, sizes: tuple[int, int, int]):
    """(orbit rows, pair columns) of a pair constant on the orbits of ``_orbit_members`` (so
    S(k) commutes with the swaps; a real one's S(k) = S(k)^T joins blocks (mu, nu) and
    (nu, mu)), else None: ``orbit_rows(k)`` gives each orbit's |S_ij|^2 at the momenta k,
    one value column per orbit key, and pair p reads column ``pair_columns[p]``.

    S(k) = V S_q V* + sum_mu s_mu (P_mu - V_mu V_mu*), V the normalised indicators of the b
    nonempty blocks: S_q(k) is the S of (V*AV, V*BV), s_mu(k) that of the scalars A_ii - A_ij,
    B_ii - B_ij (i != j in block mu) on its sum-zero vectors.  An orbit in blocks (mu, nu) has
    |S_q[mu, nu] / sqrt(size_mu size_nu) + s_mu (delta_ij - 1/size_mu) delta_mu_nu|^2.
    ``_smatrix_grid`` checks S_q, and each |s_mu|^2 may miss 1 by ``SMATRIX_ATOL``.
    """
    orbits = _orbit_members(sizes)
    real = not (A.imag.any() or B.imag.any())
    keys = [(mu, nu, kind) for mu, nu, kind in orbits if not real or mu <= nu]  # value columns
    entries, pair_columns = (A.ravel().tolist(), B.ravel().tolist()), [0] * A.size
    for (mu, nu, kind), pairs in orbits.items():  # a real pair's (nu, mu, "") reads (mu, nu, "")
        if any(m[pair] != m[pairs[0]] for m in entries for pair in pairs):
            return None
        col = 1 + keys.index((*sorted((mu, nu)), kind) if real else (mu, nu, kind))
        for pair in pairs:
            pair_columns[pair] = col
    label = [mu for mu, s in zip((1, 2, 3), sizes) if s]  # of the b nonempty blocks
    size, first = [sizes[mu - 1] for mu in label], [sum(sizes[:mu - 1]) for mu in label]
    b, multi = len(size), [q for q, s in enumerate(size) if s > 1]
    rows = [[M[i].tolist() for i in first] for M in (A, B)]  # a row per block gives V*MV
    Aq, Bq = (np.array([[math.sqrt(s / t) * sum(r[j:j + t]) for j, t in zip(first, size)]
                        for r, s in zip(R, size)]) for R in rows)
    alpha, beta = ([R[q][first[q]] - R[q][first[q] + 1] for q in multi] for R in rows)
    c = np.zeros((b * b + len(multi), len(keys)))  # key o's value: |(S_q, s) @ c[:, o]|^2
    for o, (mu, nu, kind) in enumerate(keys):
        i, j = label.index(mu), label.index(nu)
        c[b * i + j, o] = 1.0 / math.sqrt(size[i] * size[j])
        if kind and i in multi:
            c[b * b + multi.index(i), o] = (kind == "_refl") - 1.0 / size[i]

    def orbit_rows(k):
        z = _smatrix_grid(Aq, Bq, k).reshape(len(k), -1)
        if multi:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ikb = 1j * k[:, None] * beta
                z = np.concatenate([z, (ikb - alpha) / (ikb + alpha)], axis=1)
                linalg.require_unitary_columns(z[:, None, b * b:], k, "k B overflows")
        return np.abs(z @ c) ** 2
    return orbit_rows, pair_columns


def probability_sweep(fp: FilterParams, k_grid) -> SweepTable:
    """Evaluate |S(k)|^2 of the uniform-block coupling over ``k_grid``.

    A design whose PQRS form has no spectral split (``PQRSForm.split``) is not
    an admissible coupling, and its typed error is raised before any S(k).
    """
    form = uniform_block_pqrs(fp)
    form.split  # computed once per design; raises for a design that validate refuses
    A, B = _pqrs_pair(form)
    return pair_sweep(A, B, k_grid, fp.block_sizes)
