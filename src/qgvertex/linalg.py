"""Dense complex matrix primitives with tolerance-aware rank decisions.

Matrices are plain 2-d ``numpy`` arrays of ``complex128``.  Zero-dimensional
shapes ((0, k), (k, 0), (0, 0)) are legal values everywhere: they multiply,
invert and concatenate like any other matrix, which lets degenerate block
decompositions work without special-casing at call sites.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteMatrix, ShapeMismatch, SingularMatrix

# Relative cutoff on singular values for every rank decision after the
# admissibility verdict: the ranks r_a and r_b that ``validate`` records, each
# column pick and inverse of the conversions, and the k -> 0 rank of S.
DEFAULT_RTOL = 1e-10

# Default absolute cutoff for Hermitian / unitary residual checks.
DEFAULT_ATOL = 1e-10

# Largest amount by which a column of a computed |S(k)|^2 may miss 1.  Admissible
# pairs miss by rounding: up to 2.6e-10 at k = 1e+-6 and 2.3e-9 at 1e+-7 on the
# random test corpus, which ``DEFAULT_ATOL`` would refuse; a visibly wrong table
# misses by 1e-2 or more.
SMATRIX_ATOL = 1e-6


def as_complex_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a fresh 2-d complex array."""
    a = np.array(values, dtype=complex, order="C")
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def frozen(values) -> np.ndarray:
    """Copy to a read-only complex matrix (records are immutable)."""
    return read_only(as_complex_matrix(values))[0]


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays`` themselves, each made read-only in place (derived values a record caches)."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def require_finite(blocks: dict, shapes: dict | None = None) -> None:
    """Raise NonFiniteMatrix naming the first of ``blocks`` (name -> matrix) with a
    NaN or infinite entry, or ShapeMismatch for one whose shape is not in ``shapes``."""
    for name, m in blocks.items():
        finite = np.isfinite(m)  # has the shape of m, even for nested lists
        if shapes is not None and finite.shape != shapes[name]:
            raise ShapeMismatch(f"block {name} has shape {finite.shape}, expected {shapes[name]}")
        if np.count_nonzero(finite) < finite.size:  # a third of the cost of .all() on small blocks
            raise NonFiniteMatrix(f"{name} has a NaN or infinite entry")


def max_norm(m: np.ndarray) -> float:
    """Entrywise max-norm; 0 for zero-dimensional matrices."""
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def largest_part(m: np.ndarray) -> float:
    """Largest |real part| or |imaginary part| of an entry of a complex matrix with
    contiguous rows; 0 for zero-dimensional ones.  Unlike the largest modulus
    (``max_norm``), it is finite for finite entries."""
    return 0.0 if m.size == 0 else float(np.abs(m.view(float)).max())


def in_range(*matrices: np.ndarray) -> tuple[np.ndarray, ...]:
    """``matrices`` (complex, rows contiguous) times one power of two, exactly, if the
    largest real or imaginary part of their entries lies beyond 2^+-500, where moduli
    and squared norms overflow or underflow: for scale-free decisions."""
    exponent = math.frexp(max(map(largest_part, matrices)))[1]
    if abs(exponent) <= 500:
        return matrices
    return tuple(np.ldexp(M.view(float), -exponent).view(complex) for M in matrices)


def unitarity_defect(u: np.ndarray) -> float:
    """max-norm of U U* - I."""
    return max_norm(u @ u.conj().T - np.eye(len(u)))


def require_unitary_columns(s: np.ndarray, ks, cause: str) -> None:
    """ValueError unless each column of |s|^2 (s of shape (..., n, n)) sums to 1
    within ``SMATRIX_ATOL``; a NaN or infinite entry fails too.  The message
    names the range of the momenta ``ks`` and the likely ``cause``.  Call it under
    ``np.errstate(over="ignore")``, where a huge entry's square is inf and fails."""
    defect = np.abs((np.abs(s) ** 2).sum(axis=-2) - 1.0).max()
    if not defect <= SMATRIX_ATOL:
        raise ValueError(f"S(k) is not finite or not unitary for k in [{np.min(ks):g}, "
                         f"{np.max(ks):g}] ({cause}): a column of |S|^2 misses 1 by {defect:.2g}")


def require_tolerance(tol: float) -> None:
    """ValueError unless 0 < tol < 1, the rule of every relative rank cut: the test
    is False for NaN too, a cut at tol <= 0 counts rounding noise as rank and one
    at tol >= 1 would give rank 0 for every matrix."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"rank tolerance must lie strictly between 0 and 1, got {tol!r}")


def rank(m: np.ndarray, tol: float = DEFAULT_RTOL) -> int:
    """Number of singular values above ``tol`` times the largest one, 0 < tol < 1."""
    require_tolerance(tol)
    m = np.ascontiguousarray(m, dtype=complex)
    if m.size == 0:
        return 0
    s = np.linalg.svd(in_range(m)[0], compute_uv=False)  # shifted: no modulus overflows
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix; raises SingularMatrix when rank(m) < n.

    The inverse is computed first.  Since cond_2(M) <= |M|_F |M^{-1}|_F, a
    product below 1/(2 DEFAULT_RTOL) certifies that the rank test passes (the
    factor 2 covers the rounding of both sides); only when it is not, or when
    the LU factorisation breaks down, does the SVD rank test decide.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"inverse needs a square matrix, got {m.shape}")
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        pass
    else:
        # an overflow to inf, or inf times an underflow to 0 (NaN), fails the certificate
        with np.errstate(over="ignore", invalid="ignore"):
            certified = 2.0 * DEFAULT_RTOL * np.linalg.norm(m) * np.linalg.norm(inv) < 1.0
        if certified:
            return inv
    if rank(m) < n:
        raise SingularMatrix(f"matrix of shape {m.shape} is singular within rtol={DEFAULT_RTOL:g}")
    return np.linalg.inv(m)


def is_hermitian(m: np.ndarray, tol: float) -> bool:
    """True iff the max-norm of (M - M*) is at most ``tol``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"is_hermitian needs a square matrix, got {m.shape}")
    return max_norm(m - m.conj().T) <= tol


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2; used to symmetrize blocks that are Hermitian in theory."""
    return 0.5 * (m + m.conj().T)


def inverse_permutation(perm) -> np.ndarray:
    """``inv`` with perm[inv[j]] = j: M[:, inv] and M[np.ix_(inv, inv)] undo ``perm``.
    Raises ShapeMismatch unless ``perm`` holds each of 0..n-1 once."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ShapeMismatch(f"not a permutation of 0..{n - 1}: {perm}")
    return np.array(perm).argsort()  # a third of the cost of np.argsort(perm) at small n


def unpermute(m: np.ndarray, perm) -> np.ndarray:
    """Square M with rows and columns moved from slots ``perm`` back to the original
    numbering, as a new read-only matrix: the one exit from permuted coordinates."""
    inv = inverse_permutation(perm)
    return read_only(m.take(inv, axis=0).take(inv, axis=1))[0]
