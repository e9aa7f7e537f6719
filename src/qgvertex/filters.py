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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidShape, SingularSBlock
from .forms import PQRSForm, _pqrs_pair
from .scattering import _limits, _low_k_deficit, _smatrix_grid

#: default dominance ratio of probabilities used to read ">>" in a design
DEFAULT_DOMINANCE = 3.0

#: tolerance for closed-form vs matrix-limit agreement reports
CLOSED_FORM_TOL = 1e-6

#: momenta per batched solve and per block of CSV rows; a long sweep then
#: holds the complex temporaries and row lists of one block only
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
        m = self.r_a + self.r_b - self.n
        if self.n < 1 or not (0 <= self.r_a <= self.n and 0 <= self.r_b <= self.n) or m < 0:
            raise InvalidShape(
                f"block sizes ({m}, {self.n - self.r_a}, {self.n - self.r_b}) "
                f"are not admissible for n = {self.n}"
            )
        if not np.isfinite([self.p, self.q, self.r, self.s]).all():
            raise ValueError(f"block constants must be finite, got {self}")
        if m > 0 and self.s == 0.0:
            raise SingularSBlock("s must be nonzero when the S block is nonempty")

    @property
    def block_sizes(self) -> tuple[int, int, int]:
        return (self.r_a + self.r_b - self.n, self.n - self.r_a, self.n - self.r_b)


FIG1_PARAMS = FilterParams(n=5, r_a=3, r_b=4, p=2.5, q=1.2, r=0.0, s=3.0)
FIG2_PARAMS = FilterParams(n=5, r_a=3, r_b=4, p=0.0, q=1.2, r=2.1, s=0.2)
PRESETS = {"fig1": FIG1_PARAMS, "fig2": FIG2_PARAMS}

DELTA_DELTA_DELTAPRIME = "delta-delta-deltaprime"
DELTA_DELTAPRIME_DELTAPRIME = "delta-deltaprime-deltaprime"
NO_BRANCHING = "none"


def uniform_block_pqrs(fp: FilterParams) -> PQRSForm:
    """PQRS form with constant blocks and the identity edge numbering."""
    m, na, nb = fp.block_sizes
    return PQRSForm(
        n=fp.n,
        r_a=fp.r_a,
        r_b=fp.r_b,
        perm=tuple(range(fp.n)),
        P=linalg.frozen(fp.p * np.ones((m, nb), dtype=complex)),
        Q=linalg.frozen(fp.q * np.ones((na, nb), dtype=complex)),
        R=linalg.frozen(fp.r * np.ones((na, m), dtype=complex)),
        S=linalg.frozen(fp.s * np.ones((m, m), dtype=complex)),
    )


def _block_means(x: np.ndarray, sizes: tuple[int, int, int]) -> dict[str, np.ndarray]:
    """Block-pair means of ``x`` (shape (..., n, n)), keyed by CSV column in order.

    ``b{mu}{nu}`` is the mean of a cross block; a diagonal block gives the
    mean of its diagonal, ``b{mu}{mu}_refl``, and, with two or more edges,
    of its off-diagonal entries, ``b{mu}{mu}_intra``.  Empty blocks give none.
    """
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
                # boolean indexing returns the stack column-major; C order keeps
                # each row's summation order that of a single matrix
                off = np.ascontiguousarray(blk[..., ~np.eye(sizes[mu - 1], dtype=bool)])
                means[f"b{mu}{mu}_intra"] = off.mean(axis=-1)
    return means


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


def amplitude_limits(fp: FilterParams, tol: float = CLOSED_FORM_TOL) -> AmplitudeLimits:
    """Evaluate both limit tables and check the closed forms against them."""
    m, na, nb = fp.block_sizes
    form = uniform_block_pqrs(fp)
    high, low = _limits(form, _low_k_deficit(form, linalg.DEFAULT_RTOL))
    hi, lo = np.abs(np.asarray(high.entries)), np.abs(np.asarray(low.entries))

    l_p = nb * m
    l_q = nb * na
    l_r = na * m
    g = fp.q - m * fp.r * fp.p
    denom_hi = 1.0 + l_p * fp.p**2 + l_q * g**2
    denom_lo = 1.0 + l_r * fp.r**2 + l_q * fp.q**2
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
    for name, (high, low) in _block_means(np.stack([hi, lo]), fp.block_sizes).items():
        key = (int(name[1]), int(name[2])) if len(name) == 3 else int(name[1])
        high_table, low_table = tables[name[3:]]
        high_table[key], low_table[key] = float(high), float(low)
    (high_k, low_k), (high_refl, low_refl), (high_intra, low_intra) = tables.values()

    closed_high = {p: v for p, v in closed_candidates_high.items() if p in high_k}
    closed_low = {p: v for p, v in closed_candidates_low.items() if p in low_k}
    mismatches = [
        LimitMismatch("high-k", pair, value, high_k[pair])
        for pair, value in closed_high.items() if abs(value - high_k[pair]) > tol
    ] + [
        LimitMismatch("low-k", pair, value, low_k[pair])
        for pair, value in closed_low.items() if abs(value - low_k[pair]) > tol
    ]
    return AmplitudeLimits(
        l_p=l_p, l_q=l_q, l_r=l_r,
        high_k=high_k, low_k=low_k,
        high_k_reflection=high_refl, low_k_reflection=low_refl,
        high_k_intra=high_intra, low_k_intra=low_intra,
        closed_form_high=closed_high, closed_form_low=closed_low,
        mismatches=tuple(mismatches),
    )


def classify_branching(fp: FilterParams, threshold: float = DEFAULT_DOMINANCE,
                       limits: AmplitudeLimits | None = None) -> str:
    """Branching label from the dominance pattern of the limit amplitudes.

    ``threshold`` is the required ratio of probabilities (squared
    amplitudes) for reading one channel as dominating another.  Couplings
    whose three blocks are not all nonempty carry no tripartite label.
    ``limits``, when given, must be ``amplitude_limits(fp)``; it saves
    computing them again.
    """
    if threshold <= 1.0:
        raise ValueError("dominance threshold must exceed 1")
    if any(size == 0 for size in fp.block_sizes):
        return NO_BRANCHING
    if limits is None:
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
    """Transmission probabilities |S_ij(k)|^2 on a momentum grid.

    When ``block_sizes`` is set, rows also carry block-pair aggregates:
    the mean probability over each cross pair, plus per-block reflection
    (diagonal) and intra-block (off-diagonal) means.
    """

    n: int
    ks: np.ndarray
    probabilities: np.ndarray  # (len(ks), n, n), real
    block_sizes: tuple[int, int, int] | None = None

    def header(self) -> list[str]:
        cols = ["k"] + [f"S{i + 1}{j + 1}" for i in range(self.n) for j in range(self.n)]
        if self.block_sizes is not None:
            cols += list(_block_means(self.probabilities[:0], self.block_sizes))
        return cols

    def rows(self):
        """Yield one list of floats per momentum, matching ``header()``."""
        for start in range(0, self.ks.size, SWEEP_BLOCK):
            block = slice(start, start + SWEEP_BLOCK)
            prob = self.probabilities[block]
            means = {} if self.block_sizes is None else _block_means(prob, self.block_sizes)
            columns = [self.ks[block], prob.reshape(len(prob), -1), *means.values()]
            yield from np.column_stack(columns).tolist()


def pair_sweep(A, B, ks: np.ndarray, block_sizes: tuple[int, int, int] | None) -> SweepTable:
    """|S_ij(k)|^2 of the pair (A, B) over the ascending positive grid ``ks``."""
    probs = np.empty((ks.size,) + A.shape)
    for start in range(0, ks.size, SWEEP_BLOCK):
        s = _smatrix_grid(A, B, ks[start:start + SWEEP_BLOCK])
        probs[start:start + SWEEP_BLOCK] = np.abs(s) ** 2
    return SweepTable(n=A.shape[0], ks=ks, probabilities=probs, block_sizes=block_sizes)


def probability_sweep(fp: FilterParams, k_grid) -> SweepTable:
    """Evaluate |S(k)|^2 of the uniform-block coupling over ``k_grid``."""
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1 or ks.size < 1:
        raise ValueError("k_grid must be a non-empty 1-d array")
    if np.any(ks <= 0.0) or np.any(np.diff(ks) <= 0.0):
        raise ValueError("k_grid must be strictly positive and ascending")
    A, B = _pqrs_pair(uniform_block_pqrs(fp))
    return pair_sweep(A, B, ks, fp.block_sizes)
