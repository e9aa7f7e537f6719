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
one value per orbit of index pairs, from a b x b quotient S(k) and one scalar per
block of two or more edges; its ``SweepTable`` keeps those values and the map the
CSV reads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coupling import _smatrix_grid
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
    blocks = {name: linalg.frozen(getattr(fp, name.lower()) * np.ones(shape, dtype=complex))
              for name, shape in PQRSForm.layout(fp.n, fp.r_a, fp.r_b).items()}
    return PQRSForm(fp.n, fp.r_a, fp.r_b, tuple(range(fp.n)), **blocks)


def _block_orbits(sizes: tuple[int, int, int]) -> np.ndarray:
    """(n, n) table of each index pair's orbit under the swaps of edges inside each block
    (each cross block, diagonal block's diagonal and off-diagonal), as the flat index of
    the orbit's first pair in row-major order: sorted, these come in CSV column order."""
    n = sum(sizes)
    first = np.repeat((0, sizes[0], sizes[0] + sizes[1]), sizes)  # of each edge's block
    off = (first[:, None] == first) & ~np.eye(n, dtype=bool)
    return n * first[:, None] + first + off


def _orbit_members(sizes: tuple[int, int, int]) -> dict[tuple[int, int, str], list[int]]:
    """Row-major flat indices of each orbit of ``_block_orbits``, keyed (mu, nu, kind) in
    CSV column order: kind is "" for a cross block, "_refl" for a diagonal block's
    diagonal and "_intra" for its off-diagonal."""
    table = _block_orbits(sizes)
    members = {}  # representatives (i, j), first seen in row-major order, come sorted
    for pair, rep in enumerate(table.ravel().tolist()):
        members.setdefault(divmod(rep, len(table)), []).append(pair)
    blk = [mu for mu, size in zip((1, 2, 3), sizes) for _ in range(size)]
    return {(blk[i], blk[j], "" if blk[i] != blk[j] else "_refl" if i == j else "_intra"): pairs
            for (i, j), pairs in members.items()}


def _block_means(x: np.ndarray, sizes: tuple[int, int, int]) -> dict[tuple[int, int, str], np.ndarray]:
    """Mean of ``x`` (shape (..., n, n)) over each orbit of ``_orbit_members``, under its
    key; empty blocks give none.  ``take`` gathers each orbit into a C-order copy, so
    each row of a stack sums in the order of a single matrix, and sum / count is the
    arithmetic of ``mean`` without its per-call overhead."""
    flat = x.reshape(*x.shape[:-2], -1)
    return {label: flat.take(pairs, axis=-1).sum(axis=-1) / len(pairs)
            for label, pairs in _orbit_members(sizes).items()}


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
    for (mu, nu, kind), means in _block_means(np.stack([hi, lo]), fp.block_sizes).items():
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
    ``block_sizes``, one mean per orbit of ``_block_orbits``.  ``values`` holds k and
    each orbit's value once per row, and ``columns``, the orbit map, the value column
    of each CSV column: a CSV row is ``values[i, columns]``.
    """

    values: np.ndarray  # (len(ks), 1 + orbits), float
    columns: np.ndarray  # (len(header()),) int
    block_sizes: tuple[int, int, int] | None

    @classmethod
    def from_grid(cls, ks, probabilities, block_sizes: tuple[int, int, int] | None) -> SweepTable:
        """The table of the grid ``probabilities`` (len(ks), n, n) with no symmetry: each pair
        is its own orbit, and so is each block mean (``_block_means``) of two or more pairs."""
        flat = np.reshape(probabilities, (len(ks), -1))
        columns, means = list(range(1 + flat.shape[1])), []
        if block_sizes is not None:
            for pairs, mean in zip(_orbit_members(block_sizes).values(),
                                   _block_means(np.asarray(probabilities), block_sizes).values()):
                if len(pairs) == 1:
                    columns.append(1 + pairs[0])
                else:
                    columns.append(1 + flat.shape[1] + len(means))
                    means.append(mean)
        values = np.column_stack([ks, flat, *means]).astype(float, copy=False)
        return cls(values, np.array(columns), block_sizes)

    @property
    def ks(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def probabilities(self) -> np.ndarray:
        """|S_ij(k)|^2, shape (len(ks), n, n), gathered from ``values``."""
        n = math.isqrt(len(self.columns) - 1) if self.block_sizes is None else sum(self.block_sizes)
        return self.values[:, self.columns[1:1 + n * n].reshape(n, n)]

    def header(self) -> list[str]:
        blocks = [] if self.block_sizes is None else [
            f"b{mu}{nu}{kind}" for mu, nu, kind in _orbit_members(self.block_sizes)]
        n = math.isqrt(len(self.columns) - 1 - len(blocks))
        return ["k"] + [f"S{i + 1}{j + 1}" for i, j in np.ndindex(n, n)] + blocks

    def rows(self):
        """Yield ``values`` in blocks of ``SWEEP_BLOCK`` rows, one momentum per row;
        ``block[:, columns]`` are their CSV rows."""
        for start in range(0, len(self.values), SWEEP_BLOCK):
            yield self.values[start:start + SWEEP_BLOCK]


def pair_sweep(A, B, ks, block_sizes: tuple[int, int, int] | None) -> SweepTable:
    """|S_ij(k)|^2 of the pair (A, B) over the ascending positive grid ``ks``.

    ``block_sizes``, when given, are three non-negative integers summing to
    n; the table then carries one aggregate per orbit of ``_block_orbits``, and if
    (A, B) has the blocks' symmetry on those orbits, each orbit of index pairs gets one
    value, from the quotient (``_quotient_sweep``).  Otherwise |S_ij|^2 is the batched
    solve's, bit for bit.  A column of |S(k)|^2 that misses 1 by more than
    ``linalg.SMATRIX_ATOL`` raises ValueError (``_smatrix_grid``).
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
    table = None if block_sizes is None else _quotient_sweep(A, B, ks, block_sizes)
    if table is not None:
        return table
    probs = np.empty((ks.size, n, n))
    for start in range(0, ks.size, SWEEP_BLOCK):
        s = _smatrix_grid(A, B, ks[start:start + SWEEP_BLOCK])
        probs[start:start + SWEEP_BLOCK] = np.abs(s) ** 2
    return SweepTable.from_grid(ks, probs, block_sizes)


def _quotient_sweep(A, B, ks, sizes: tuple[int, int, int]) -> SweepTable | None:
    """The table of a pair constant on the orbits of ``_block_orbits`` (so S(k) commutes with
    the swaps; a real one's S(k) = S(k)^T joins blocks (mu, nu) and (nu, mu)), else None.

    S(k) = V S_q V* + sum_mu s_mu (P_mu - V_mu V_mu*), V the normalised indicators of the b
    nonempty blocks: S_q(k) is the S of (V*AV, V*BV), s_mu(k) that of the scalars A_ii - A_ij,
    B_ii - B_ij (i != j in block mu) on its sum-zero vectors.  An orbit in blocks (mu, nu) has
    |S_q[mu, nu] / sqrt(size_mu size_nu) + s_mu (delta_ij - 1/size_mu) delta_mu_nu|^2.
    ``_smatrix_grid`` checks S_q, and each |s_mu|^2 may miss 1 by ``SMATRIX_ATOL``.
    """
    table = _block_orbits(sizes)
    if not ((A.take(table) == A).all() and (B.take(table) == B).all()):
        return None
    orbit = table if A.imag.any() or B.imag.any() else np.minimum(table, table.T)  # mu <= nu
    n, size = len(A), [s for s in sizes if s]
    b, blk = len(size), [mu for mu, s in enumerate(size) for _ in range(s)]  # each edge's block
    f, multi = [blk.index(mu) for mu in range(b)], [mu for mu in range(b) if size[mu] > 1]
    rows = [[M[i].tolist() for i in f] for M in (A, B)]  # a row per block gives V*MV
    Aq, Bq = (np.array([[math.sqrt(s / t) * sum(r[j:j + t]) for j, t in zip(f, size)]
                        for r, s in zip(R, size)]) for R in rows)
    alpha, beta = ([R[mu][f[mu]] - R[mu][f[mu] + 1] for mu in multi] for R in rows)
    orbit, table = orbit.ravel().tolist(), table.ravel().tolist()
    reps = [pair for pair, rep in enumerate(orbit) if pair == rep]  # one value column each
    c = np.zeros((b * b + len(multi), len(reps)))  # orbit o's value: |(S_q, s) @ c[:, o]|^2
    for o, (i, j) in enumerate(divmod(rep, n) for rep in reps):
        c[b * blk[i] + blk[j], o] = 1.0 / math.sqrt(size[blk[i]] * size[blk[j]])
        if blk[i] in multi and blk[j] == blk[i]:
            c[b * b + multi.index(blk[i]), o] = (i == j) - 1.0 / size[blk[i]]
    values = np.column_stack([ks, np.empty((ks.size, len(reps)))])
    for start in range(0, ks.size, SWEEP_BLOCK):
        k = ks[start:start + SWEEP_BLOCK]
        z = _smatrix_grid(Aq, Bq, k).reshape(len(k), -1)
        if multi:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ikb = 1j * k[:, None] * beta
                z = np.concatenate([z, (ikb - alpha) / (ikb + alpha)], axis=1)
                linalg.require_unitary_columns(z[:, None, b * b:], k, "k B overflows")
        values[start:start + SWEEP_BLOCK, 1:] = np.abs(z @ c) ** 2
    column = {rep: col for col, rep in enumerate(reps, 1)}
    means = [orbit[pair] for pair, rep in enumerate(table) if pair == rep]  # block-mean orbits
    return SweepTable(values, np.array([0] + [column[rep] for rep in orbit + means]), sizes)


def probability_sweep(fp: FilterParams, k_grid) -> SweepTable:
    """Evaluate |S(k)|^2 of the uniform-block coupling over ``k_grid``.

    A design whose PQRS form has no spectral split (``PQRSForm.split``) is not
    an admissible coupling, and its typed error is raised before any S(k).
    """
    form = uniform_block_pqrs(fp)
    form.split  # computed once per design; raises for a design that validate refuses
    A, B = _pqrs_pair(form)
    return pair_sweep(A, B, k_grid, fp.block_sizes)
