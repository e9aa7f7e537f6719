"""Vertex couplings given as a matrix pair (A, B) and their unitary description.

A vertex of degree n carries the boundary condition

    A Psi + B Psi' = 0

with Psi the vector of edge boundary values and Psi' the outward
derivatives.  The pair is admissible iff rank(A|B) = n and A B* is
Hermitian; ``validate`` enforces both and caches the ranks r_a = rank(A),
r_b = rank(B) that drive every canonical-form decomposition downstream.

The same coupling is equivalently fixed by a single unitary matrix U via

    (U - I) Psi + i (U + I) Psi' = 0,

and U coincides with the scattering matrix at momentum k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotSelfAdjoint, NotUnitary, RankDeficient, ShapeMismatch


@dataclass(frozen=True, eq=False)
class VertexCoupling:
    """Validated boundary-condition pair with cached ranks.

    Instances are produced by ``validate`` and are immutable; the ranks are
    computed once, with one tolerance, and reused by all conversions.
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    r_a: int
    r_b: int
    tol: float


@dataclass(frozen=True, eq=False)
class UnitaryForm:
    """Unitary matrix U describing a coupling via (U-I)Psi + i(U+I)Psi' = 0."""

    n: int
    U: np.ndarray


def validate(A, B, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Check admissibility of (A, B) and return the coupling record.

    Raises ShapeMismatch for non-square or unequal shapes, RankDeficient
    when rank(A|B) < n, and NotSelfAdjoint when A B* fails the Hermitian
    test.  The Hermitian residual is compared against ``tol`` scaled by the
    magnitude of A B*, so rescaling both matrices leaves the verdict alone.
    """
    A = linalg.frozen(A)
    B = linalg.frozen(B)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"need two square matrices of equal size, got {A.shape} and {B.shape}")
    n = A.shape[0]
    if n < 1:
        raise ShapeMismatch("vertex degree must be at least 1")
    if linalg.rank(np.concatenate([A, B], axis=1), tol) < n:
        raise RankDeficient(f"rank(A|B) < n = {n}: the pair does not fix a vertex coupling")
    ab = A @ B.conj().T
    herm_tol = tol * max(1.0, linalg.max_norm(ab))
    if not linalg.is_hermitian(ab, herm_tol):
        raise NotSelfAdjoint("A B* is not Hermitian within tolerance")
    r_a = linalg.rank(A, tol)
    r_b = linalg.rank(B, tol)
    if r_a + r_b < n:
        # consequence of the two admissibility conditions; asserted defensively
        raise RankDeficient(f"computed ranks r_a={r_a}, r_b={r_b} violate r_a + r_b >= n = {n}")
    return VertexCoupling(n=n, A=A, B=B, r_a=r_a, r_b=r_b, tol=tol)


def to_unitary(c: VertexCoupling) -> UnitaryForm:
    """Unitary description of the coupling, U = -(A + iB)^{-1}(A - iB).

    A + iB is invertible for every admissible pair, so a SingularMatrix
    error here signals a validation bug rather than bad input.
    """
    u = -linalg.inverse(c.A + 1j * c.B, c.tol) @ (c.A - 1j * c.B)
    return UnitaryForm(n=c.n, U=linalg.frozen(u))


def from_unitary(u, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Coupling with A = U - I and B = i(U + I); U must be unitary."""
    U = u.U if isinstance(u, UnitaryForm) else linalg.as_complex_matrix(u)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ShapeMismatch(f"unitary description needs a square matrix, got {U.shape}")
    n = U.shape[0]
    defect = linalg.max_norm(U @ U.conj().T - np.eye(n))
    if defect > max(tol, linalg.DEFAULT_ATOL):
        raise NotUnitary(f"max-norm unitarity defect {defect:.3e} exceeds tolerance")
    return validate(U - np.eye(n), 1j * (U + np.eye(n)), tol)
