"""Vertex scattering matrices, their limits and momentum expansions.

The on-shell scattering matrix of a coupling (A, B) at momentum k > 0 is

    S(k) = -(A + ikB)^{-1} (A - ikB),

an n x n unitary matrix with S(1) = U.  ``smatrix_direct`` evaluates it and
serves as the reference oracle; the ST and reverse-ST routes compute the
same matrix while inverting only blocks of the sizes fixed by the ranks
(r_b and r_a), and the projector route reads it off the projectors with
one n x n solve.  The ST, reverse-ST and PQRS routes work in permuted
coordinates and are conjugated back, so every function here returns S(k)
in the original edge numbering.

k = 0 and k = infinity are never substituted into the definition.  The
PQRS route, the limits and both momentum series come from one formula
instead: in the permuted coordinates of a PQRS form,

    S(k) = -I + 2 proj_z + 2 U diag(k/(k + iw)) U*,

with proj_z the orthogonal projector onto Z = (R*; I; Q*), X = QR the
reduced QR factorisation of the auxiliary matrix X, (w, V) the eigensystem
of the Hermitian R^{-*} S R^{-1} and U = QV.  A PQRS record computes the
triple (proj_z, U, w) once, as ``PQRSForm.split``, and ``_limit_matrix``
writes the formula for the route and both limits; they take a PQRS form
only.  A record of another kind than a function reads raises TypeError.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coupling import VertexCoupling, _require_record, _smatrix_grid
from .errors import SeriesDivergence, SingularSBlock
from .forms import PQRSForm, ProjectorForm, ReverseSTForm, STForm


@dataclass(frozen=True, eq=False)
class SMatrix:
    """Scattering matrix at momentum ``k`` (math.inf and 0.0 mark limits)."""

    n: int
    k: float
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class SeriesExpansion:
    """Truncated momentum expansion of S(k).

    ``kind`` is "high-k" (S(k) = sum_j C_j (1/ik)^j) or "low-k"
    (S(k) = sum_j C_j (ik)^j).  ``coefficients[0]`` equals the matching
    limit matrix.  ``spectral_radius`` bounds the geometric-series region:
    the series converges for k > spectral_radius (high-k) respectively
    k < 1/spectral_radius (low-k); nothing is claimed outside it.
    """

    n: int
    kind: str
    order: int
    coefficients: tuple[np.ndarray, ...]
    spectral_radius: float

    def converges_at(self, k: float) -> bool:
        if self.kind == "high-k":
            return k > self.spectral_radius
        return k * self.spectral_radius < 1.0

    def evaluate(self, k: float) -> np.ndarray:
        """Sum the truncated series at k in numpy scalar powers; warns outside the convergence
        region, and raises ValueError, naming k and the order, where the sum overflows."""
        _require_momentum(k)
        if not self.converges_at(k):
            warnings.warn(
                f"{self.kind} series evaluated at k={k:g} outside its convergence "
                f"region (spectral radius {self.spectral_radius:g}); the expansion "
                "is asymptotic and the result is the caller's risk",
                SeriesDivergence,
                stacklevel=2,
            )
        total = np.zeros((self.n, self.n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            base = np.complex128(1.0 / (1j * k) if self.kind == "high-k" else 1j * k)
            for j, c in enumerate(self.coefficients):
                total += c * base**j
        if not np.isfinite(total).all():
            raise ValueError(f"{self.kind} series of order {self.order} overflows at k={k:g}")
        return total


def _require_momentum(k: float) -> None:
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"momentum k must be positive and finite, got {k!r}")


# ---------------------------------------------------------------------------
# The five scattering routes
# ---------------------------------------------------------------------------

def _unitary(route):
    """``route(f, k, ...)``'s S(k) as an SMatrix, refused unless unitary and run with numpy's
    warnings off (``linalg.require_unitary_columns``): far from the coupling's scale a
    solve loses unitarity, as ``_smatrix_grid``'s does."""
    @functools.wraps(route)
    def checked(f, k, *rest):
        s = linalg.require_unitary_columns(lambda: route(f, k, *rest), k,
                                           "k is too far from the coupling's scale")
        return SMatrix(n=f.n, k=k, entries=s)
    return checked


def smatrix_direct(c: VertexCoupling, k: float) -> SMatrix:
    """S(k) from the defining pair; inverts the full n x n matrix A + ikB."""
    _require_record(c, VertexCoupling)
    _require_momentum(k)
    s = _smatrix_grid(c.A, c.B, np.array([k], dtype=float))[0]
    return SMatrix(n=c.n, k=k, entries=linalg.frozen(s))


@_unitary
def _st_route(f: STForm | ReverseSTForm, k: float, sign: float) -> SMatrix:
    """sign (-I + 2 L (L*L - zS)^{-1} L*), L = (I; T*), in the original numbering:
    S(k) of the ST form for (z, sign) = (1/ik, 1), of the reverse one for (ik, -1)."""
    _require_momentum(k)
    z = 1.0 / (1j * k) if sign > 0 else 1j * k
    left = np.concatenate([np.eye(len(f.T)), f.T.conj().T])
    mid = left.conj().T @ left - z * np.asarray(f.S)
    s = sign * (2.0 * left @ np.linalg.solve(mid, left.conj().T) - np.eye(f.n))
    return linalg.unpermute(s, f.perm)


def smatrix_st(f: STForm, k: float) -> SMatrix:
    """S(k) from the ST form; inverts only an r_b x r_b matrix."""
    _require_record(f, STForm)
    return _st_route(f, k, 1.0)


def smatrix_reverse_st(f: ReverseSTForm, k: float) -> SMatrix:
    """S(k) from the reverse ST form; inverts only an r_a x r_a matrix."""
    _require_record(f, ReverseSTForm)
    return _st_route(f, k, -1.0)


@_unitary
def smatrix_pqrs(f: PQRSForm, k: float) -> SMatrix:
    """S(k) = -I + 2 Z (Z*Z)^{-1} Z* + 2 X (X*X - S/ik)^{-1} X* from the PQRS form.

    Read off the record's ``split`` by the module's formula: nothing is solved
    per momentum.  The momentum-dependent term is well defined for every
    Hermitian S at k > 0, including singular S, and is absent for
    scale-invariant couplings (empty S block).
    """
    _require_record(f, PQRSForm)
    _require_momentum(k)
    _, u, w = f.split
    return _limit_matrix(f, u, k / (k + 1j * w))


@_unitary
def smatrix_projector(p: ProjectorForm, k: float) -> SMatrix:
    """S(k) = -proj_p + proj_q - (lam - ik)^{-1} (lam + ik) proj_c.

    The resolvent acts on range(proj_c) only.  One n x n solve covers it:
    with lam_c = proj_c lam proj_c, the matrix lam_c - ik proj_c + I - proj_c
    is lam_c - ik on range(proj_c) and the identity on its complement,
    where lam_c + ik proj_c vanishes, so

        S(k) = -proj_p + proj_q
               - (lam_c - ik proj_c + I - proj_c)^{-1} (lam_c + ik proj_c).
    """
    _require_record(p, ProjectorForm)
    _require_momentum(k)
    proj_c = np.asarray(p.projector_c)
    lam_c = proj_c @ np.asarray(p.lam) @ proj_c
    ik_c = 1j * k * proj_c
    resolvent = np.linalg.solve(lam_c - ik_c + np.eye(p.n) - proj_c, lam_c + ik_c)
    s = -np.asarray(p.projector_p) + np.asarray(p.projector_q) - resolvent
    return linalg.frozen(s)


# ---------------------------------------------------------------------------
# Limits and momentum expansions
#
# All of them come from the module's formula for S(k) and the record's one
# ``split``.  As k -> infinity every factor k/(k + iw) tends to 1, as k -> 0
# only those with w = 0 stay (at 1); expanding the factor in powers of 1/ik
# gives w^j, in powers of ik it gives -w^{-j}.
# ---------------------------------------------------------------------------

def _limit_matrix(f: PQRSForm, u: np.ndarray, factors) -> np.ndarray:
    """-I + 2 proj_z + 2 u diag(factors) u* in the original numbering, proj_z from the
    record's ``split``: S(k) for u = U and factors k/(k + iw), and the limit that keeps
    the columns u of U, those whose factor tends to 1, for factors 1."""
    s = -np.eye(f.n, dtype=complex) + 2.0 * (f.split[0] + (u * factors) @ u.conj().T)
    return linalg.unpermute(s, f.perm)


def _zero_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Mask |w| <= ``linalg.DEFAULT_RTOL`` max|w|.  H is congruent to S, so by Sylvester's
    law of inertia it marks m - rank(S) columns of U: those on which S acts as zero."""
    size = np.abs(w)
    return size <= linalg.DEFAULT_RTOL * size.max(initial=0.0)


def limit_high_k(f: PQRSForm) -> SMatrix:
    """k -> infinity limit of S(k); k-independent, needs no condition on S."""
    _require_record(f, PQRSForm)
    return SMatrix(n=f.n, k=math.inf, entries=_limit_matrix(f, f.split[1], 1.0))


def limit_low_k(f: PQRSForm, allow_singular: bool = False) -> SMatrix:
    """k -> 0 limit of S(k).

    For an empty or regular S block this is -I + 2 Z (Z*Z)^{-1} Z*.  When
    S is present but singular (an eigenvalue w of H with |w| at most
    ``linalg.DEFAULT_RTOL`` max|w|) that expression is not the limit any more: a
    SingularSBlock is raised unless ``allow_singular`` is set, in which
    case the exact limit is returned, i.e. the expression above plus twice
    the projector onto the part of range(X) on which S acts as zero.
    """
    _require_record(f, PQRSForm)
    _, u, w = f.split
    cols = u[:, _zero_eigenvalues(w)]
    if cols.shape[1] and not allow_singular:
        raise SingularSBlock(
            "the S block is numerically singular; the closed-form k -> 0 "
            "limit does not apply (pass allow_singular=True for the exact limit)"
        )
    return SMatrix(n=f.n, k=0.0, entries=_limit_matrix(f, cols, 1.0))


def expand(f: PQRSForm, kind: str, order: int) -> SeriesExpansion:
    """Truncated geometric expansion of S(k) around k = infinity or k = 0.

    From the module's formula and the PQRS form's ``split``:
    high-k:  C_0 = -I + 2 proj_z + 2 U U* and C_j = 2 U diag(w^j) U*;
             the series converges for k > max |w|.
    low-k:   C_0 = -I + 2 proj_z and C_j = -2 U diag(w^-j) U*; this
             needs a regular S, as ``limit_low_k`` decides it, and
             converges for k < min |w|.

    Coefficients are returned in the original edge numbering, computed with numpy's warnings
    off: ValueError, naming the kind and the order, where one is not finite (w^+-j overflows).
    """
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    if kind not in ("high-k", "low-k"):
        raise ValueError(f"kind must be 'high-k' or 'low-k', got {kind!r}")
    _require_record(f, PQRSForm)
    _, u, w = f.split
    if kind == "low-k" and _zero_eigenvalues(w).any():
        raise SingularSBlock("the low-k expansion requires a regular S block")
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "high-k":
            sign, ratio, kept = 2.0, w, u
        else:
            sign, ratio, kept = -2.0, 1.0 / w, u[:, :0]
        coeffs = (_limit_matrix(f, kept, 1.0),) + tuple(
            linalg.unpermute(sign * (u * ratio**j) @ u.conj().T, f.perm) for j in range(1, order + 1))
    if not np.isfinite(coeffs).all():
        raise ValueError(f"{kind} series of order {order} overflows: a coefficient is not finite")
    radius = float(np.max(np.abs(ratio))) if ratio.size else 0.0
    return SeriesExpansion(n=f.n, kind=kind, order=order,
                           coefficients=coeffs, spectral_radius=radius)


# ---------------------------------------------------------------------------
# Physical consistency
# ---------------------------------------------------------------------------

def bc_residual(c: VertexCoupling, s: SMatrix) -> float:
    """max-norm of A (I + S) + ik B (S - I); ~0 when S solves the coupling.  A pair
    beyond 2^+-500 is first brought into float range (``linalg.in_range``), where the
    products neither overflow nor flush to zero."""
    _require_record(c, VertexCoupling)
    _require_momentum(s.k)
    A, B = linalg.in_range(c.A, c.B)
    entries = np.asarray(s.entries)
    eye = np.eye(c.n)
    res = A @ (eye + entries) + 1j * s.k * B @ (entries - eye)
    return linalg.max_norm(res)
