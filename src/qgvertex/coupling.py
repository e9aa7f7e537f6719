"""Vertex couplings given as a matrix pair (A, B) and their unitary description.

A vertex of degree n carries the boundary condition

    A Psi + B Psi' = 0

with Psi the vector of edge boundary values and Psi' the outward
derivatives.  The pair is admissible iff rank(A|B) = n and A B* is
Hermitian; ``validate`` enforces both and caches the ranks r_a = rank(A),
r_b = rank(B) that drive every canonical-form decomposition downstream.

The same coupling is equivalently fixed by a single unitary matrix U via

    (U - I) Psi + i (U + I) Psi' = 0,

and U is S(1), which ``to_unitary`` evaluates by ``_smatrix_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotSelfAdjoint, NotUnitary, RankDeficient, ShapeMismatch


@dataclass(frozen=True, eq=False)
class VertexCoupling:
    """Validated boundary-condition pair with its ranks, cut at ``linalg.DEFAULT_RTOL``.

    Instances are produced by ``validate`` and are immutable; the ranks, ST and PQRS forms
    (``forms._once_per_record``) are computed once and reused by all conversions.
    """

    n: int
    A: np.ndarray
    B: np.ndarray
    r_a: int
    r_b: int


@dataclass(frozen=True, eq=False)
class UnitaryForm:
    """Unitary matrix U describing a coupling via (U-I)Psi + i(U+I)Psi' = 0."""

    n: int
    U: np.ndarray

    def __post_init__(self):
        linalg.require_finite({"U": self.U}, self.layout(self.n))

    @staticmethod
    def layout(n: int) -> dict[str, tuple[int, int]]:
        return {"U": (n, n)}


def _require_record(f, *records: type) -> None:
    """TypeError naming ``records`` unless ``f`` is one: another kind of record has
    other fields, or the same fields with another meaning."""
    if not isinstance(f, records):
        needed = " or ".join(record.__name__ for record in records)
        raise TypeError(f"needs a {needed}, got {type(f).__name__}")


def _smatrix_grid(A: np.ndarray, B: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """S(k) = -(A + ikB)^{-1} (A - ikB) for the 1-d ``ks``, by one batched solve.

    Raises ValueError instead of returning an S that is not unitary
    (``linalg.require_unitary_columns``), which comes from k B overflowing or
    from A + ikB being numerically singular; numpy's warnings are silenced,
    since that error reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ikb = (1j * ks)[:, None, None] * B
        try:
            s = -np.linalg.solve(A + ikb, A - ikb)
        except np.linalg.LinAlgError:  # an exactly singular A + ikB fails the check below
            s = np.full(ikb.shape, np.nan)
        linalg.require_unitary_columns(s, ks, "k B overflows or A + ikB is numerically singular")
    return s


def validate(A, B, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Check admissibility of (A, B) and return the coupling record.

    Raises ShapeMismatch for non-square or unequal shapes, RankDeficient
    when rank(A|B) < n, and NotSelfAdjoint when A B* fails the Hermitian
    test: with each row of (A|B) divided by its largest |entry|, then its 2-norm,
    into (a|b), the defect of a b* is bounded by ``tol``, whatever the scale.
    A NaN or infinite entry raises NonFiniteMatrix.  ``tol`` is the slack of
    these two tests only: the ranks r_a and r_b are cut at ``linalg.DEFAULT_RTOL``.
    """
    A = linalg.frozen(A)
    B = linalg.frozen(B)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"need two square matrices of equal size, got {A.shape} and {B.shape}")
    n = A.shape[0]
    if n < 1:
        raise ShapeMismatch("vertex degree must be at least 1")
    linalg.require_finite({"A": A, "B": B})
    rows = linalg.in_range(np.concatenate([A, B], axis=1))[0]  # no modulus overflows
    if linalg.rank(rows, tol) < n:
        raise RankDeficient(f"rank(A|B) < n = {n}: the pair does not fix a vertex coupling")
    # by the real and imaginary parts: a complex division takes 1 / max, which
    # overflows for a subnormal row
    rows.view(float)[:] /= np.abs(rows).max(axis=1, keepdims=True)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if not linalg.is_hermitian(rows[:, :n] @ rows[:, n:].conj().T, tol):
        raise NotSelfAdjoint("A B* is not Hermitian within tolerance")
    r_a = linalg.rank(A)
    r_b = linalg.rank(B)
    if r_a + r_b < n:
        # consequence of the two admissibility conditions; asserted defensively
        raise RankDeficient(f"computed ranks r_a={r_a}, r_b={r_b} violate r_a + r_b >= n = {n}")
    return VertexCoupling(n=n, A=A, B=B, r_a=r_a, r_b=r_b)


def to_unitary(c: VertexCoupling) -> UnitaryForm:
    """Unitary description of the coupling, U = S(1) = -(A + iB)^{-1}(A - iB),
    which is defined for every admissible pair."""
    _require_record(c, VertexCoupling)
    A, B = linalg.in_range(c.A, c.B)  # S does not change under (A, B) -> (cA, cB)
    return UnitaryForm(n=c.n, U=linalg.frozen(_smatrix_grid(A, B, np.array([1.0]))[0]))


def from_unitary(u: UnitaryForm) -> VertexCoupling:
    """Coupling with A = U - I and B = i(U + I); U must have a unitarity
    defect (max-norm of U U* - I) of at most ``linalg.DEFAULT_ATOL``."""
    _require_record(u, UnitaryForm)
    U, n = u.U, u.n
    defect = linalg.unitarity_defect(U)
    if defect > linalg.DEFAULT_ATOL:
        raise NotUnitary(f"max-norm unitarity defect {defect:.3e} exceeds tolerance")
    return validate(U - np.eye(n), 1j * (U + np.eye(n)))
