"""Canonical descriptions of a vertex coupling and parameter counting.

Every admissible pair (A, B) can be rewritten, after renumbering the edges
by a permutation Pi and multiplying the system from the left by an
invertible matrix, in one of several unique shapes:

* ST form, organized by r_b = rank(B):

      ( I  T )            ( S    0 )
      (      ) Psi'  =    (        ) Psi ,      S Hermitian (r_b x r_b)
      ( 0  0 )            ( -T*  I )

* reverse ST form, the same shape with the roles of Psi and Psi'
  exchanged and r_a = rank(A) in place of r_b;

* PQRS form, organized by both ranks, with blocks of sizes
  m = r_a + r_b - n, n - r_a, n - r_b:

      ( I  0  P )          ( S    -SR*      0 )
      ( R  I  Q ) Psi'  =  ( 0     0        0 ) Psi ,
      ( 0  0  0 )          ( -P*  (RP-Q)*   I )

  where S is Hermitian (and invertible whenever the construction below
  produced it from a coupling).  The ST form is the PQRS form with r_a = n
  (m = r_b, Q and R empty) and P = T, and the reverse ST form is that of
  the swapped pair (B, A); both are assembled and split as such;

* projector form: orthogonal projectors (proj_p, proj_q, proj_c) summing
  to the identity plus a Hermitian lam supported on range(proj_c), with
  boundary conditions  proj_p Psi = 0,  proj_q Psi' = 0,
  proj_c Psi' = lam Psi.

Permutations are stored explicitly (``perm[i]`` is the original edge index
sitting at permuted slot i) and applied on reconstruction, so callers
always see matrices in their original edge numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coupling import VertexCoupling, validate
from .errors import InvalidRankPair, ShapeMismatch, SingularMatrix, SingularSBlock


@dataclass(frozen=True, eq=False)
class STForm:
    n: int
    r_b: int
    perm: tuple[int, ...]
    S: np.ndarray  # r_b x r_b, Hermitian
    T: np.ndarray  # r_b x (n - r_b)


@dataclass(frozen=True, eq=False)
class ReverseSTForm:
    n: int
    r_a: int
    perm: tuple[int, ...]
    S: np.ndarray  # r_a x r_a, Hermitian
    T: np.ndarray  # r_a x (n - r_a)


@dataclass(frozen=True, eq=False)
class PQRSForm:
    n: int
    r_a: int
    r_b: int
    perm: tuple[int, ...]
    P: np.ndarray  # m x (n - r_b)
    Q: np.ndarray  # (n - r_a) x (n - r_b)
    R: np.ndarray  # (n - r_a) x m
    S: np.ndarray  # m x m, Hermitian

    @property
    def block_sizes(self) -> tuple[int, int, int]:
        """(m, n - r_a, n - r_b) with m = r_a + r_b - n."""
        return (self.r_a + self.r_b - self.n, self.n - self.r_a, self.n - self.r_b)


@dataclass(frozen=True, eq=False)
class ProjectorForm:
    """Projector description; all matrices act in the original numbering."""

    n: int
    projector_p: np.ndarray  # annihilates Psi
    projector_q: np.ndarray  # annihilates Psi'
    projector_c: np.ndarray  # I - projector_p - projector_q
    lam: np.ndarray          # Hermitian, lam = projector_c lam projector_c


# ---------------------------------------------------------------------------
# ST reduction
# ---------------------------------------------------------------------------

def _greedy_independent_columns(M: np.ndarray, count: int, tol: float) -> list[int]:
    """Lexicographically smallest set of ``count`` independent columns of M.

    One left-to-right Gram-Schmidt pass: each candidate column is projected
    twice against an orthonormal basis of the columns picked so far
    (classical Gram-Schmidt with reorthogonalisation, CGS2) and is accepted
    when its residual norm exceeds ``tol`` times the Frobenius norm of the
    picked columns plus the candidate.  An SVD rank test of the same columns
    picks the same set on random couplings, but it can reject a clearly
    independent column when an earlier picked column is tiny, because the
    condition number of the set then exceeds 1/tol; this test accepts it.
    """
    M = np.asarray(M, dtype=complex)
    sq_norms = (M.real ** 2 + M.imag ** 2).sum(axis=0).tolist()
    basis = np.empty((count, M.shape[0]), dtype=complex)  # orthonormal rows b_i
    basis_h = np.empty_like(basis)                         # their conjugates
    picked: list[int] = []
    picked_sq = 0.0
    for j, v in enumerate(M.T):
        found = len(picked)
        if found == count:
            break
        if found:
            q, qh = basis[:found], basis_h[:found]
            v = v - (qh @ v) @ q
            v = v - (qh @ v) @ q
        residual = math.sqrt(np.vdot(v, v).real)
        if residual > tol * math.sqrt(picked_sq + sq_norms[j]):
            basis[found] = v / residual
            basis_h[found] = basis[found].conj()
            picked.append(j)
            picked_sq += sq_norms[j]
    if len(picked) != count:
        raise SingularMatrix(
            f"found only {len(picked)} independent columns where {count} were expected"
        )
    return picked


def _picked_first(picked: list[int], size: int) -> list[int]:
    """``picked`` followed by the remaining indices of range(size) in order."""
    rest = np.ones(size, dtype=bool)
    rest[picked] = False
    return picked + np.flatnonzero(rest).tolist()


def _st_reduce(A: np.ndarray, B: np.ndarray, r_b: int, tol: float):
    """Reduce the pair (A, B) to ST shape; returns (perm, S, T).

    The permutation moves the lexicographically earliest independent
    columns B1 of B to the front.  One complete QR factorisation
    B1 = Q1 R11, with Q = (Q1 Q2), gives the invertible left factor
    W^{-1} for W = (B1 Q2) = Q diag(R11, I), so that W^{-1} B_perm =
    (I T; 0 0) with T = R11^{-1} Q1* B2.  The reduced pair
    -W^{-1} A_perm has the rows -R11^{-1} Q1* A_perm over -Q2* A_perm;
    admissibility forces it into the shape (S 0; -T* I) after eliminating
    its lower-right block, and S is obtained as the corresponding Schur
    complement.
    """
    n = A.shape[0]
    order = _picked_first(_greedy_independent_columns(B, r_b, tol), n)
    perm = tuple(order)
    At = A[:, order]
    Bt = B[:, order]

    q, r = np.linalg.qr(Bt[:, :r_b], mode="complete")
    qh = q.conj().T
    qa = qh @ At
    top = np.linalg.solve(r[:r_b], np.concatenate([qh[:r_b] @ Bt[:, r_b:], qa[:r_b]], axis=1))
    T = top[:, :n - r_b]
    Ap = -np.concatenate([top[:, n - r_b:], qa[r_b:]], axis=0)

    A12 = Ap[:r_b, r_b:]
    A21 = Ap[r_b:, :r_b]
    A22 = Ap[r_b:, r_b:]
    if r_b < n and linalg.rank(A22, tol) < n - r_b:
        raise SingularMatrix("lower-right block of the reduced pair is singular; "
                             "the input pair is numerically inadmissible")
    S = linalg.hermitian_part(Ap[:r_b, :r_b] - A12 @ np.linalg.solve(A22, A21))
    return perm, S, T


def to_st_form(c: VertexCoupling) -> STForm:
    """Unique ST form of a coupling, organized by r_b = rank(B)."""
    perm, S, T = _st_reduce(np.asarray(c.A), np.asarray(c.B), c.r_b, c.tol)
    return STForm(n=c.n, r_b=c.r_b, perm=perm, S=linalg.frozen(S), T=linalg.frozen(T))


def to_reverse_st_form(c: VertexCoupling) -> ReverseSTForm:
    """Unique reverse ST form, organized by r_a = rank(A).

    The reduction is the ST reduction applied to the swapped pair (B, A),
    which is admissible exactly when (A, B) is.
    """
    perm, S, T = _st_reduce(np.asarray(c.B), np.asarray(c.A), c.r_a, c.tol)
    return ReverseSTForm(n=c.n, r_a=c.r_a, perm=perm, S=linalg.frozen(S), T=linalg.frozen(T))


def _st_as_pqrs(f: STForm | ReverseSTForm) -> PQRSForm:
    """The form as the PQRS form with r_a = n and r_b = r, its rank: m = r,
    P = T, and Q and R are empty.

    For a reverse ST form this is the PQRS form of the swapped pair (B, A).
    """
    n = f.n
    r = f.r_b if isinstance(f, STForm) else f.r_a
    return PQRSForm(n=n, r_a=n, r_b=r, perm=f.perm, P=f.T, Q=np.zeros((0, n - r), dtype=complex),
                    R=np.zeros((0, r), dtype=complex), S=f.S)


def st_to_matrices(f: STForm, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Assemble (A, B) from an ST form and validate, in original numbering."""
    return validate(*_pqrs_pair(_st_as_pqrs(f)), tol)


def reverse_st_to_matrices(f: ReverseSTForm, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Assemble (A, B) from a reverse ST form and validate."""
    A, B = _pqrs_pair(_st_as_pqrs(f))
    return validate(B, A, tol)


# ---------------------------------------------------------------------------
# PQRS form
# ---------------------------------------------------------------------------

def to_pqrs_form(c: VertexCoupling) -> PQRSForm:
    """Unique PQRS form of a coupling.

    Built from the ST form: the m = r_a + r_b - n lexicographically
    earliest independent rows of S are permuted to the top (a secondary
    renumbering of the first r_b edges), the dependent rows are expressed
    through them by a unique matrix R, and one more left multiplication
    clears them.  The extracted diagonal block S11 is Hermitian and
    invertible whenever the edge renumbering above succeeded.
    """
    st = to_st_form(c)
    n, r_b = c.n, c.r_b
    m = c.r_a + c.r_b - n

    S_st = np.asarray(st.S)
    T_st = np.asarray(st.T)
    try:
        picked = _greedy_independent_columns(S_st.conj().T, m, c.tol)
    except SingularMatrix as exc:
        raise SingularSBlock(
            "the Hermitian block of the ST form is numerically rank-deficient "
            f"(expected rank {m}); the PQRS reduction would not be unique"
        ) from exc
    sigma = _picked_first(picked, r_b)
    Sp = S_st[np.ix_(sigma, sigma)]
    Tp = T_st[sigma, :]
    perm = tuple(st.perm[i] for i in sigma) + st.perm[r_b:]

    top = Sp[:m, :]   # (S11 S21*), independent rows
    bot = Sp[m:, :]   # (S21 S22), their linear combinations
    # unique R with bot = -R top: with top* = Q R_t, R* = -R_t^{-1} Q* bot*
    q, r = np.linalg.qr(top.conj().T)
    R = -np.linalg.solve(r, q.conj().T @ bot.conj().T).conj().T
    T1 = Tp[:m, :]
    T2 = Tp[m:, :]
    return PQRSForm(
        n=n,
        r_a=c.r_a,
        r_b=c.r_b,
        perm=perm,
        P=linalg.frozen(T1),
        Q=linalg.frozen(T2 + R @ T1),
        R=linalg.frozen(R),
        S=linalg.frozen(linalg.hermitian_part(Sp[:m, :m])),
    )


def _check_pqrs_shapes(f: PQRSForm) -> tuple[int, int, int]:
    m, na, nb = f.block_sizes
    if m < 0:
        raise InvalidRankPair(f"r_a + r_b - n = {m} is negative")
    expected = {"P": (m, nb), "Q": (na, nb), "R": (na, m), "S": (m, m)}
    for name, shape in expected.items():
        got = getattr(f, name).shape
        if got != shape:
            raise ShapeMismatch(f"block {name} has shape {got}, expected {shape}")
    return m, na, nb


def _pqrs_pair(f: PQRSForm) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) assembled from PQRS blocks in the original numbering, unvalidated."""
    m, na, nb = _check_pqrs_shapes(f)
    n = f.n
    Bh = np.zeros((n, n), dtype=complex)
    Bh[:m, :m] = np.eye(m)
    Bh[:m, m + na:] = f.P
    Bh[m:m + na, :m] = f.R
    Bh[m:m + na, m:m + na] = np.eye(na)
    Bh[m:m + na, m + na:] = f.Q
    Rh = np.zeros((n, n), dtype=complex)
    Rh[:m, :m] = f.S
    Rh[:m, m:m + na] = -f.S @ f.R.conj().T
    Rh[m + na:, :m] = -f.P.conj().T
    Rh[m + na:, m:m + na] = (f.R @ f.P - f.Q).conj().T
    Rh[m + na:, m + na:] = np.eye(nb)
    inv = linalg.inverse_permutation(f.perm)
    return 0.0 - Rh[:, inv], Bh[:, inv]  # 0 - x: zeros stay +0.0, printed as 0.0


def pqrs_to_matrices(f: PQRSForm, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Assemble (A, B) from PQRS blocks, undo the permutation, validate.

    S only needs to be Hermitian here; with a singular S the assembled
    pair is still admissible, but its actual rank of A drops below the
    declared r_a, so the declared ranks match the validated ones only for
    regular S.
    """
    return validate(*_pqrs_pair(f), tol)


# ---------------------------------------------------------------------------
# Projector form
# ---------------------------------------------------------------------------

def _pqrs_stacks(f: PQRSForm) -> tuple[np.ndarray, np.ndarray]:
    """Column stacks Z = (R*; I; Q*) and W = (I; 0; P*) in permuted coordinates.

    Z spans the subspace on which Psi' is annihilated.  The part of W
    orthogonal to Z spans the momentum-dependent subspace, and what is
    orthogonal to both is spanned by Y = (-P; RP - Q; I), the subspace on
    which Psi is annihilated.  Z and W have full column rank thanks to
    their identity blocks.
    """
    m, na, nb = f.block_sizes
    n = f.n
    Z = np.zeros((n, na), dtype=complex)
    Z[:m] = f.R.conj().T
    Z[m:m + na] = np.eye(na)
    Z[m + na:] = f.Q.conj().T
    W = np.zeros((n, m), dtype=complex)
    W[:m] = np.eye(m)
    W[m + na:] = f.P.conj().T
    return Z, W


def _split_factors(f: PQRSForm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q_z, Q_x, H) from one reduced QR factorisation of (Z | W).

    Its leading columns Q_z are an orthonormal basis of Z.  Since the
    auxiliary matrix X = W - Z (Z*Z)^{-1} Z* W of the PQRS route is the
    part of W orthogonal to Z, the trailing columns Q_x and the trailing
    diagonal block R of the triangular factor are the reduced QR
    factorisation X = Q_x R, so neither Z*Z nor X*X is formed.  H is the
    Hermitian m x m matrix R^{-*} S R^{-1}, with which
    X (X*X - S/ik)^{-1} X* = Q_x (I - H/ik)^{-1} Q_x*.
    """
    Z, W = _pqrs_stacks(f)
    na = Z.shape[1]
    q, r = np.linalg.qr(np.concatenate([Z, W], axis=1))
    r_inv = np.linalg.inv(r[na:, na:])
    return q[:, :na], q[:, na:], linalg.hermitian_part(r_inv.conj().T @ np.asarray(f.S) @ r_inv)


def _spectral_split(f: PQRSForm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(proj_z, U, w) with S(k) = -I + 2 proj_z + 2 U diag(1/(1 - w/ik)) U*.

    In permuted coordinates, with (Q_z, Q_x, H) of ``_split_factors``,
    proj_z = Q_z Q_z* is the orthogonal projector onto Z, (w, V) is the
    eigensystem of H and U = Q_x V.
    """
    qz, qx, h = _split_factors(f)
    w, v = np.linalg.eigh(h)
    return qz @ qz.conj().T, qx @ v, w


def to_projector_form(c: VertexCoupling) -> ProjectorForm:
    """Projector description (proj_p, proj_q, proj_c, lam) of a coupling.

    From ``_spectral_split`` of the PQRS form: proj_q = proj_z projects
    onto Z, proj_c = U U* onto range(X), proj_p onto the rest, which is
    range(Y), and lam = U diag(w) U* = X (X*X)^{-1} S (X*X)^{-1} X*
    reproduces the scattering matrix through the projector formula.
    """
    f = to_pqrs_form(c)
    n = f.n
    proj_q, u, w = _spectral_split(f)
    proj_c = u @ u.conj().T
    proj_p = np.eye(n) - proj_q - proj_c
    lam = linalg.hermitian_part((u * w) @ u.conj().T)
    proj_p, proj_q, proj_c, lam = (linalg.frozen(linalg.unpermute(m, f.perm))
                                   for m in (proj_p, proj_q, proj_c, lam))
    return ProjectorForm(n=n, projector_p=proj_p, projector_q=proj_q, projector_c=proj_c, lam=lam)


def projector_to_matrices(p: ProjectorForm, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Coupling pair (proj_p - lam, proj_q + proj_c) realizing the projector form."""
    return validate(p.projector_p - p.lam, p.projector_q + p.projector_c, tol)


# ---------------------------------------------------------------------------
# Parameter counting
# ---------------------------------------------------------------------------

def _check_rank_pair(n: int, r_a: int, r_b: int) -> None:
    if not (0 <= r_a <= n and 0 <= r_b <= n):
        raise InvalidRankPair(f"ranks must lie in 0..{n}, got ({r_a}, {r_b})")
    if r_a + r_b < n:
        raise InvalidRankPair(f"(r_a, r_b) = ({r_a}, {r_b}) violates r_a + r_b >= n = {n}")


def parameter_count(n: int, r_a: int, r_b: int) -> int:
    """Real parameters of the coupling family with both ranks fixed:
    n^2 - (n - r_a)^2 - (n - r_b)^2."""
    _check_rank_pair(n, r_a, r_b)
    return n * n - (n - r_a) ** 2 - (n - r_b) ** 2


def delta_parameters(n: int, r_a: int, r_b: int) -> int:
    """Parameter surplus of the block description over the projector one.

    Delta = 2 [r_a r_b - (r_a + r_b - n)^2]; it equals the count of real
    parameters needed to fix the ranges of the two projectors, which the
    subspace-dimension formula 2 r_a (n - r_a) + 2 (n - r_b)(r_a + r_b - n)
    expresses directly.  Both expressions are evaluated and must agree.
    """
    _check_rank_pair(n, r_a, r_b)
    delta = 2 * (r_a * r_b - (r_a + r_b - n) ** 2)
    by_subspaces = 2 * r_a * (n - r_a) + 2 * (n - r_b) * (r_a + r_b - n)
    if delta != by_subspaces:
        raise AssertionError(f"parameter-count identity broken: {delta} != {by_subspaces}")
    return delta


def subfamily_count(n: int) -> int:
    """Number of admissible rank pairs (r_a, r_b): (n+1)(n+2)/2."""
    if n < 1:
        raise InvalidRankPair(f"vertex degree must be positive, got {n}")
    return (n + 1) * (n + 2) // 2
