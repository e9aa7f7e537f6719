"""Vertex scattering matrices, their limits and momentum expansions.

The on-shell scattering matrix of a coupling (A, B) at momentum k > 0 is

    S(k) = -(A + ikB)^{-1} (A - ikB),

an n x n unitary matrix.  ``smatrix_direct`` evaluates this definition and
serves as the reference oracle; the ST, reverse-ST, PQRS and projector
routes compute the same matrix while inverting only blocks of the sizes
fixed by the ranks (r_b, r_a, and n - r_a with r_a + r_b - n
respectively).  Form-based routes work in permuted coordinates and are
conjugated back, so every function here returns S(k) in the original edge
numbering.

k = 0 and k = infinity are never substituted into the definition; the
closed-form limit matrices are used instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coupling import VertexCoupling
from .errors import SeriesDivergence, SingularSBlock
from .forms import PQRSForm, ProjectorForm, ReverseSTForm, STForm, _pqrs_stacks, build_x

#: momenta used when deciding whether two couplings describe the same vertex
EQUIVALENCE_GRID = (0.1, 1.0, 10.0)


@dataclass(frozen=True, eq=False)
class SMatrix:
    """Scattering matrix at momentum ``k`` (math.inf and 0.0 mark limits)."""

    n: int
    k: float
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class ScatteringSolution:
    """Boundary data of the scattering solution for one incoming edge.

    psi = (I + S) e_j and dpsi = ik (S - I) e_j satisfy A psi + B dpsi = 0
    for the coupling the matrix was computed from.
    """

    edge: int
    k: float
    psi: np.ndarray
    dpsi: np.ndarray


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

    @property
    def limit(self) -> np.ndarray:
        return self.coefficients[0]

    def converges_at(self, k: float) -> bool:
        if self.kind == "high-k":
            return k > self.spectral_radius
        return k * self.spectral_radius < 1.0

    def evaluate(self, k: float) -> np.ndarray:
        """Sum the truncated series at k; warns outside the convergence region."""
        _require_momentum(k)
        if not self.converges_at(k):
            warnings.warn(
                f"{self.kind} series evaluated at k={k:g} outside its convergence "
                f"region (spectral radius {self.spectral_radius:g}); the expansion "
                "is asymptotic and the result is the caller's risk",
                SeriesDivergence,
                stacklevel=2,
            )
        base = 1.0 / (1j * k) if self.kind == "high-k" else 1j * k
        total = np.zeros((self.n, self.n), dtype=complex)
        for j, c in enumerate(self.coefficients):
            total += c * base**j
        return total


def _require_momentum(k: float) -> None:
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"momentum k must be positive and finite, got {k!r}")


def _unpermute(s: np.ndarray, perm) -> np.ndarray:
    inv = linalg.inverse_permutation(perm)
    return s[np.ix_(inv, inv)]


def _smatrix_grid(A: np.ndarray, B: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """S(k) = -(A + ikB)^{-1} (A - ikB) for the 1-d ``ks``, by one batched solve.

    Raises ValueError instead of returning a non-finite S once k B overflows;
    numpy's overflow warnings are silenced, since that error reports it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ikb = (1j * ks)[:, None, None] * B
        s = -np.linalg.solve(A + ikb, A - ikb)
    if not np.isfinite(s).all():
        raise ValueError(f"S(k) is not finite for k in [{ks.min():g}, {ks.max():g}]: "
                         "k B overflows")
    return s


def _st_stack(f: STForm | ReverseSTForm) -> tuple[np.ndarray, np.ndarray]:
    """L = (I; T*) in permuted coordinates and its Gram matrix I + TT*."""
    n, r = f.n, f.T.shape[0]
    left = np.zeros((n, r), dtype=complex)
    left[:r] = np.eye(r)
    left[r:] = f.T.conj().T
    return left, np.eye(r) + f.T @ f.T.conj().T


# ---------------------------------------------------------------------------
# The five scattering routes
# ---------------------------------------------------------------------------

def smatrix_direct(c: VertexCoupling, k: float) -> SMatrix:
    """S(k) from the defining pair; inverts the full n x n matrix A + ikB."""
    _require_momentum(k)
    s = _smatrix_grid(c.A, c.B, np.array([k], dtype=float))[0]
    return SMatrix(n=c.n, k=k, entries=linalg.frozen(s))


def smatrix_st(f: STForm, k: float) -> SMatrix:
    """S(k) from the ST form; inverts only an r_b x r_b matrix."""
    _require_momentum(k)
    left, gram = _st_stack(f)
    mid = gram - np.asarray(f.S) / (1j * k)
    s = -np.eye(f.n, dtype=complex) + 2.0 * left @ np.linalg.solve(mid, left.conj().T)
    return SMatrix(n=f.n, k=k, entries=linalg.frozen(_unpermute(s, f.perm)))


def smatrix_reverse_st(f: ReverseSTForm, k: float) -> SMatrix:
    """S(k) from the reverse ST form; inverts only an r_a x r_a matrix."""
    _require_momentum(k)
    left, gram = _st_stack(f)
    mid = gram - 1j * k * np.asarray(f.S)
    s = np.eye(f.n, dtype=complex) - 2.0 * left @ np.linalg.solve(mid, left.conj().T)
    return SMatrix(n=f.n, k=k, entries=linalg.frozen(_unpermute(s, f.perm)))


def smatrix_pqrs(f: PQRSForm, k: float) -> SMatrix:
    """S(k) from the PQRS form.

    Inverts one (n - r_a) block and one (r_a + r_b - n) block; the first,
    Z*Z, serves both the k-independent term and X.  The
    momentum-dependent term reads 2 X (X*X - S/ik)^{-1} X*; it is well
    defined for every Hermitian S at k > 0, including singular S, and is
    absent for scale-invariant couplings (empty S block).
    """
    _require_momentum(k)
    z_projector = _range_projector(_pqrs_stacks(f)[1])
    s = _low_k_matrix(f, z_projector)
    if f.block_sizes[0] > 0:
        X = build_x(f, z_projector)
        mid = X.conj().T @ X - np.asarray(f.S) / (1j * k)
        s = s + 2.0 * X @ np.linalg.solve(mid, X.conj().T)
    return SMatrix(n=f.n, k=k, entries=linalg.frozen(_unpermute(s, f.perm)))


def smatrix_projector(p: ProjectorForm, k: float) -> SMatrix:
    """S(k) = -proj_p + proj_q - (lam - ik)^{-1} (lam + ik) proj_c.

    The resolvent is inverted on range(proj_c) only, through an
    orthonormal eigenbasis of the projector.
    """
    _require_momentum(k)
    n = p.n
    w, v = np.linalg.eigh(np.asarray(p.projector_c))
    qc = v[:, w > 0.5]
    mc = qc.shape[1]
    s = -np.asarray(p.projector_p) + np.asarray(p.projector_q)
    if mc > 0:
        lam_c = qc.conj().T @ np.asarray(p.lam) @ qc
        resolvent = np.linalg.solve(lam_c - 1j * k * np.eye(mc),
                                    (lam_c + 1j * k * np.eye(mc)) @ qc.conj().T)
        s = s - qc @ resolvent
    return SMatrix(n=n, k=k, entries=linalg.frozen(s))


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------

def _range_projector(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector M (M*M)^{-1} M* onto the columns of M (full column rank)."""
    return m @ np.linalg.solve(m.conj().T @ m, m.conj().T)


def _high_k_matrix(f: PQRSForm) -> np.ndarray:
    """Scale-invariant limit in permuted coordinates: I - 2 Y (Y*Y)^{-1} Y*."""
    Y, _ = _pqrs_stacks(f)  # Y*Y = I + P*P + (RP-Q)*(RP-Q)
    return np.eye(f.n, dtype=complex) - 2.0 * _range_projector(Y)


def _low_k_matrix(f: PQRSForm, z_projector: np.ndarray | None = None) -> np.ndarray:
    """Reverse scale-invariant limit in permuted coordinates: -I + 2 Z (Z*Z)^{-1} Z*.

    ``z_projector`` is Z (Z*Z)^{-1} Z* when the caller has it already.
    """
    if z_projector is None:
        z_projector = _range_projector(_pqrs_stacks(f)[1])  # Z*Z = I + RR* + QQ*
    return -np.eye(f.n, dtype=complex) + 2.0 * z_projector


def _s_block_is_singular(f: PQRSForm, tol: float) -> bool:
    m = f.block_sizes[0]
    return m > 0 and linalg.rank(np.asarray(f.S), tol) < m


def limit_high_k(f: PQRSForm) -> SMatrix:
    """k -> infinity limit of S(k); k-independent, needs no condition on S."""
    return SMatrix(n=f.n, k=math.inf,
                   entries=linalg.frozen(_unpermute(_high_k_matrix(f), f.perm)))


def limit_low_k(f: PQRSForm, allow_singular: bool = False,
                tol: float = linalg.DEFAULT_RTOL) -> SMatrix:
    """k -> 0 limit of S(k).

    For an empty or regular S block this is -I + 2 Z (Z*Z)^{-1} Z*.  When
    S is present but singular that expression is not the limit any more: a
    SingularSBlock is raised unless ``allow_singular`` is set, in which
    case the exact limit is returned, i.e. the expression above plus twice
    the projector onto the part of range(X) on which S acts as zero.
    """
    m = f.block_sizes[0]
    base = _low_k_matrix(f)
    if m > 0 and _s_block_is_singular(f, tol):
        if not allow_singular:
            raise SingularSBlock(
                "the S block is numerically singular; the closed-form k -> 0 "
                "limit does not apply (pass allow_singular=True for the exact limit)"
            )
        X = build_x(f)
        qx, rx = np.linalg.qr(X)
        lam_c = np.linalg.solve(rx.conj().T, np.asarray(f.S)) @ np.linalg.inv(rx)
        lam_c = linalg.hermitian_part(lam_c)
        w, v = np.linalg.eigh(lam_c)
        scale = max(float(np.max(np.abs(w))), 1.0) if w.size else 1.0
        kernel = v[:, np.abs(w) <= tol * scale]
        wk = qx @ kernel
        base = base + 2.0 * wk @ wk.conj().T
    return SMatrix(n=f.n, k=0.0, entries=linalg.frozen(_unpermute(base, f.perm)))


# ---------------------------------------------------------------------------
# Momentum expansions
# ---------------------------------------------------------------------------

def _spectral_radius(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def expand(f: PQRSForm | STForm, kind: str, order: int,
           tol: float = linalg.DEFAULT_RTOL) -> SeriesExpansion:
    """Truncated geometric expansion of S(k) around k = infinity or k = 0.

    high-k:  C_0 is the scale-invariant limit and, for j >= 1,
             C_j = 2 X [(X*X)^{-1} S]^j (X*X)^{-1} X*          (PQRS form)
             C_j = 2 L [(I + TT*)^{-1} S]^j (I + TT*)^{-1} L*  (ST form)
    low-k:   C_0 is the reverse limit and, for j >= 1,
             C_j = -2 X (S^{-1} X*X)^{j-1} S^{-1} X*; this needs a regular
             S and is only available for the PQRS form.

    Coefficients are returned in the original edge numbering.
    """
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    if kind not in ("high-k", "low-k"):
        raise ValueError(f"kind must be 'high-k' or 'low-k', got {kind!r}")

    if kind == "high-k":
        # C_j = 2 L [G^{-1} S]^j G^{-1} L* with (L, G) = (L, I + TT*) or (X, X*X)
        if isinstance(f, STForm):
            left, gram = _st_stack(f)
            limit = -np.eye(f.n, dtype=complex) + 2.0 * left @ np.linalg.solve(gram, left.conj().T)
        else:
            left = build_x(f)
            gram = left.conj().T @ left
            limit = _high_k_matrix(f)
        step = np.linalg.solve(gram, np.asarray(f.S))
        tail = np.linalg.solve(gram, left.conj().T)
        coeffs = [limit] + [2.0 * left @ np.linalg.matrix_power(step, j) @ tail
                            for j in range(1, order + 1)]
    elif isinstance(f, STForm):
        raise ValueError("the low-k expansion requires the PQRS form")
    else:
        if _s_block_is_singular(f, tol):
            raise SingularSBlock("the low-k expansion requires a regular S block")
        X = build_x(f)
        s_inv = linalg.inverse(np.asarray(f.S), tol)
        step = s_inv @ (X.conj().T @ X)
        coeffs = [_low_k_matrix(f)] + [-2.0 * X @ np.linalg.matrix_power(step, j - 1)
                                       @ s_inv @ X.conj().T for j in range(1, order + 1)]
    coeffs = tuple(linalg.frozen(_unpermute(c, f.perm)) for c in coeffs)
    return SeriesExpansion(n=f.n, kind=kind, order=order,
                           coefficients=coeffs, spectral_radius=_spectral_radius(step))


# ---------------------------------------------------------------------------
# Physical consistency
# ---------------------------------------------------------------------------

def scattering_solution(s: SMatrix, edge: int) -> ScatteringSolution:
    """Boundary data for a wave entering on ``edge`` (0-based)."""
    _require_momentum(s.k)
    if not (0 <= edge < s.n):
        raise ValueError(f"edge index {edge} out of range for degree {s.n}")
    e = np.zeros(s.n, dtype=complex)
    e[edge] = 1.0
    entries = np.asarray(s.entries)
    psi = (np.eye(s.n) + entries) @ e
    dpsi = 1j * s.k * (entries - np.eye(s.n)) @ e
    return ScatteringSolution(edge=edge, k=s.k, psi=psi, dpsi=dpsi)


def bc_residual(c: VertexCoupling, s: SMatrix) -> float:
    """max-norm of A (I + S) + ik B (S - I); ~0 when S solves the coupling."""
    _require_momentum(s.k)
    entries = np.asarray(s.entries)
    eye = np.eye(c.n)
    res = np.asarray(c.A) @ (eye + entries) + 1j * s.k * np.asarray(c.B) @ (entries - eye)
    return linalg.max_norm(res)


def smatrix_distance(c1: VertexCoupling, c2: VertexCoupling,
                     ks=EQUIVALENCE_GRID) -> float:
    """Largest max-norm gap between the two scattering matrices over ``ks``."""
    return max(
        linalg.max_norm(np.asarray(smatrix_direct(c1, k).entries)
                        - np.asarray(smatrix_direct(c2, k).entries))
        for k in ks
    )


def couplings_equivalent(c1: VertexCoupling, c2: VertexCoupling,
                         ks=EQUIVALENCE_GRID, tol: float = 1e-9) -> bool:
    """Extensional equality: same S(k) on a momentum grid within ``tol``."""
    if c1.n != c2.n:
        return False
    return smatrix_distance(c1, c2, ks) <= tol
