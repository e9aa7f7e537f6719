"""Dense complex matrix primitives with tolerance-aware rank decisions.

Matrices are plain 2-d ``numpy`` arrays of ``complex128``.  Zero-dimensional
shapes ((0, k), (k, 0), (0, 0)) are legal values everywhere: they multiply,
invert and concatenate like any other matrix, which lets degenerate block
decompositions work without special-casing at call sites.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, SingularMatrix

# Default relative cutoff on singular values for rank decisions.  Rank
# determines which canonical-form branch is taken downstream, so every
# routine takes the tolerance as a parameter instead of hard-coding it.
DEFAULT_RTOL = 1e-10

# Default absolute cutoff for Hermitian / unitary residual checks.
DEFAULT_ATOL = 1e-10


def as_complex_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a fresh 2-d complex array."""
    a = np.array(values, dtype=complex, order="C")
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def frozen(values) -> np.ndarray:
    """Copy to a read-only complex matrix (records are immutable)."""
    a = as_complex_matrix(values)
    a.setflags(write=False)
    return a


def max_norm(m: np.ndarray) -> float:
    """Entrywise max-norm; 0 for zero-dimensional matrices."""
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def rank(m: np.ndarray, tol: float = DEFAULT_RTOL) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    if tol <= 0:
        raise ValueError("rank tolerance must be positive")
    m = np.asarray(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def inverse(m: np.ndarray, tol: float = DEFAULT_RTOL) -> np.ndarray:
    """Inverse of a square matrix; raises SingularMatrix when rank-deficient."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"inverse needs a square matrix, got {m.shape}")
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    if rank(m, tol) < n:
        raise SingularMatrix(f"matrix of shape {m.shape} is singular within rtol={tol:g}")
    return np.linalg.inv(m)


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_ATOL) -> bool:
    """True iff the max-norm of (M - M*) is at most ``tol``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"is_hermitian needs a square matrix, got {m.shape}")
    return max_norm(m - m.conj().T) <= tol


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2; used to symmetrize blocks that are Hermitian in theory."""
    return 0.5 * (m + m.conj().T)


def inverse_permutation(perm) -> np.ndarray:
    """``inv`` with perm[inv[j]] = j: M[:, inv] and M[np.ix_(inv, inv)] undo ``perm``."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return np.argsort(perm)


def orth_columns(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (reduced QR) of the columns of M; M may have none."""
    if m.shape[1] == 0:
        return m
    q, _ = np.linalg.qr(m)
    return q
