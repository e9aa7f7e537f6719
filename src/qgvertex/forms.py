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

* PQRS form, organized by both ranks, with blocks of sizes (``block_sizes``,
  the one rank-pair rule) m = r_a + r_b - n >= 0, n - r_a >= 0, n - r_b >= 0:

      ( I  0  P )          ( S    -SR*      0 )
      ( R  I  Q ) Psi'  =  ( 0     0        0 ) Psi ,
      ( 0  0  0 )          ( -P*  (RP-Q)*   I )

  where S is Hermitian (and invertible whenever the construction below
  produced it from a coupling).  The matrix multiplying Psi' is B-hat
  (``_b_hat``); the adjoints of its two nonzero block rows, Z = (R*; I; Q*)
  and W = (I; 0; P*), are the stacks that ``PQRSForm.split`` factorises.
  The ST form is the PQRS form with r_a = n
  (m = r_b, Q and R empty) and P = T, and the reverse ST form is that of
  the swapped pair (B, A); both are assembled and split as such;

* projector form: orthogonal projectors (proj_p, proj_q, proj_c) summing
  to the identity plus a Hermitian lam supported on range(proj_c), with
  boundary conditions  proj_p Psi = 0,  proj_q Psi' = 0,
  proj_c Psi' = lam Psi.

Permutations are stored explicitly (``perm[i]`` is the original edge index
sitting at permuted slot i).  A record leaves its permuted coordinates once:
the assembled pair (``_pqrs_pair``) and the data a record computes once for
its routes (``PQRSForm.split``, ``ProjectorForm.split`` and, for the ST
routes, ``scattering._st_left``) are in the original edge numbering, so
callers always see matrices in it and no route maps a result back per call.
Each record checks at construction that its permutation holds each of
0..n-1 once and its blocks are finite and of the shapes of its ``layout``,
a dict of block name -> shape; the identities its routes rely on (S
Hermitian; proj_c a projector, the three projectors summing to I, and lam
Hermitian on range(proj_c)) are checked when that data is computed.
Conversions build on the ST and PQRS forms, so a coupling record, being
immutable, computes each of them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coupling import VertexCoupling, _require_record, validate
from .errors import (InvalidRankPair, NonFiniteMatrix, NotUnitary, ShapeMismatch, SingularMatrix,
                     SingularSBlock, VertexError)


def block_sizes(n: int, r_a: int, r_b: int) -> tuple[int, int, int]:
    """(m, n - r_a, n - r_b) with m = r_a + r_b - n: the block sizes of the PQRS
    form with ranks (r_a, r_b).  Raises InvalidRankPair unless the pair is
    admissible, 0 <= r_a, r_b <= n and r_a + r_b >= n."""
    m = r_a + r_b - n
    if not (0 <= r_a <= n and 0 <= r_b <= n and m >= 0):
        for name, r in (("r_a", r_a), ("r_b", r_b)):
            if not 0 <= r <= n:
                raise InvalidRankPair(f"{name} must lie in 0..{n}, got {r}")
        raise InvalidRankPair("r_a + r_b must be at least n")
    return (m, n - r_a, n - r_b)


def _check_layout(layout: dict, n: int, perm, blocks: dict) -> None:
    """ShapeMismatch unless ``perm`` permutes 0..n-1, then ``require_finite`` with ``layout``."""
    if len(perm) != n:
        raise ShapeMismatch(f"permutation has length {len(perm)}, expected {n}")
    linalg.inverse_permutation(perm)
    linalg.require_finite(blocks, layout)


def _once_per_record(*kinds: type):
    """Decorator: ``convert`` run once per immutable record of one of ``kinds``, kept in its
    ``__dict__`` as a cached_property; another object raises ``_require_record``'s TypeError."""
    def decorate(convert):
        key = f"{convert.__module__}.{convert.__qualname__}"  # dotted: no attribute shadows it

        @functools.wraps(convert)
        def once(record):
            _require_record(record, *kinds)
            cache = vars(record)
            return cache[key] if key in cache else cache.setdefault(key, convert(record))
        return once
    return decorate


def _st_layout(n: int, r_a: int, r_b: int) -> dict:
    """S (r x r) and T (r x (n - r)) of an ST form (r_a = n, r = r_b) or a reverse ST
    form (r_b = n, r = r_a): the S block and the nonempty one of P and R* of the
    PQRS form with ranks (r_a, r_b)."""
    m, na, nb = block_sizes(n, r_a, r_b)
    return {"S": (m, m), "T": (m, na + nb)}


@dataclass(frozen=True, eq=False)
class STForm:
    n: int
    r_b: int
    perm: tuple[int, ...]
    S: np.ndarray  # r_b x r_b, Hermitian
    T: np.ndarray  # r_b x (n - r_b)

    def __post_init__(self):
        _check_layout(self.layout(self.n, self.r_b), self.n, self.perm, {"S": self.S, "T": self.T})

    layout = staticmethod(lambda n, r_b: _st_layout(n, n, r_b))


@dataclass(frozen=True, eq=False)
class ReverseSTForm:
    n: int
    r_a: int
    perm: tuple[int, ...]
    S: np.ndarray  # r_a x r_a, Hermitian
    T: np.ndarray  # r_a x (n - r_a)

    def __post_init__(self):
        _check_layout(self.layout(self.n, self.r_a), self.n, self.perm, {"S": self.S, "T": self.T})

    layout = staticmethod(lambda n, r_a: _st_layout(n, r_a, n))


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

    def __post_init__(self):
        _check_layout(self.layout(self.n, self.r_a, self.r_b), self.n, self.perm,
                      {"P": self.P, "Q": self.Q, "R": self.R, "S": self.S})

    @staticmethod
    def layout(n: int, r_a: int, r_b: int) -> dict:
        m, na, nb = block_sizes(n, r_a, r_b)
        return {"P": (m, nb), "Q": (na, nb), "R": (na, m), "S": (m, m)}

    @property
    def block_sizes(self) -> tuple[int, int, int]:
        return block_sizes(self.n, self.r_a, self.r_b)

    @functools.cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(proj_z, U, w), the one split of the record that ``scattering`` writes S(k),
        its limits and its series with, in the original numbering; read-only, once per record.

        One reduced QR factorisation of (Z | W), the adjoints of the two nonzero
        block rows of ``_b_hat``: its leading columns Q_z give proj_z = Q_z Q_z*.
        Since the auxiliary matrix X = W - Z (Z*Z)^{-1} Z* W of the PQRS route is
        the part of W orthogonal to Z, the trailing columns Q_x and the trailing
        diagonal block R of the triangular factor are the reduced QR
        factorisation X = Q_x R, so neither Z*Z nor X*X is formed.  With the
        eigensystem (w, V) of the Hermitian H = R^{-*} S R^{-1} and U = Q_x V,
        X (X*X - S/ik)^{-1} X* = Q_x (I - H/ik)^{-1} Q_x* = U diag(k/(k + iw)) U*.
        SingularMatrix when X is rank-deficient within the default tolerance, as
        it is for blocks P so large that W's columns agree to rounding, and
        NotSelfAdjoint, checked first, unless S is Hermitian.
        """
        linalg.require_hermitian(self.S, "the S block of the PQRS form")
        Bh = _b_hat(self)
        m, na, _ = self.block_sizes
        q, r = np.linalg.qr(np.concatenate([Bh[m:m + na], Bh[:m]]).conj().T)
        qz, qx = q[:, :na], q[:, na:]
        try:
            r_inv = linalg.inverse(r[na:, na:])
        except SingularMatrix as exc:
            raise SingularMatrix("the PQRS split needs X of full rank m, the part of W "
                                 "orthogonal to Z, and it is numerically rank-deficient") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            h = linalg.hermitian_part(r_inv.conj().T @ np.asarray(self.S) @ r_inv)
        if not np.isfinite(h).all():
            raise NonFiniteMatrix("H = R^-* S R^-1 of the PQRS split overflows: "
                                  "the S block is too large")
        w, v = np.linalg.eigh(h)
        inv = linalg.inverse_permutation(self.perm)
        return linalg.read_only((qz @ qz.conj().T).take(inv, axis=0).take(inv, axis=1),
                                (qx @ v).take(inv, axis=0), w)


@dataclass(frozen=True, eq=False)
class ProjectorForm:
    """Projector description; all matrices act in the original numbering."""

    n: int
    projector_p: np.ndarray  # annihilates Psi
    projector_q: np.ndarray  # annihilates Psi'
    projector_c: np.ndarray  # I - projector_p - projector_q
    lam: np.ndarray          # Hermitian, lam = projector_c lam projector_c

    def __post_init__(self):
        linalg.require_finite({"projector_p": self.projector_p, "projector_q": self.projector_q,
                               "projector_c": self.projector_c, "lam": self.lam},
                              self.layout(self.n))

    @staticmethod
    def layout(n: int) -> dict:
        return dict.fromkeys(("projector_p", "projector_q", "projector_c", "lam"), (n, n))

    @functools.cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, w) with S(k) = proj_q - proj_p + U diag((k - iw)/(k + iw)) U*; read-only,
        computed once per record.  U0 is an orthonormal basis of range(proj_c) from
        ``eigh(proj_c)``, (w, V) the eigensystem of U0* lam U0 and U = U0 V, so lam acts
        through proj_c lam proj_c only.  The record's identities are checked first:
        NotUnitary unless each eigenvalue of proj_c lies within ``linalg.DEFAULT_ATOL``
        of 0 or 1 and proj_p + proj_q + proj_c misses I by at most that, NonFiniteMatrix
        where U0* lam U0 overflows, and NotSelfAdjoint unless it is Hermitian."""
        e, v = np.linalg.eigh(np.asarray(self.projector_c))
        miss = np.minimum(np.abs(e), np.abs(e - 1.0)).max()
        if not miss <= linalg.DEFAULT_ATOL:
            raise NotUnitary(f"projector_c is not an orthogonal projector: an eigenvalue "
                             f"misses 0 or 1 by {miss:.2g}")
        total = sum(np.asarray(m) for m in (self.projector_p, self.projector_q, self.projector_c))
        miss = linalg.max_norm(total - np.eye(self.n))
        if not miss <= linalg.DEFAULT_ATOL:
            raise NotUnitary(f"projector_p + projector_q + projector_c misses I by {miss:.2g}")
        u0 = v[:, e > 0.5]
        with np.errstate(over="ignore", invalid="ignore"):
            lam_c = u0.conj().T @ np.asarray(self.lam) @ u0
        if not np.isfinite(lam_c).all():
            raise NonFiniteMatrix("U0* lam U0 of the projector split overflows: lam is too large")
        linalg.require_hermitian(lam_c, "lam on range(projector_c)")
        w, vc = np.linalg.eigh(lam_c)
        return linalg.read_only(u0 @ vc, w)


# ---------------------------------------------------------------------------
# ST reduction
# ---------------------------------------------------------------------------

def _greedy_independent_columns(M: np.ndarray, count: int) -> list[int]:
    """Lexicographically smallest set of ``count`` independent columns of M.

    One left-to-right Gram-Schmidt pass: each candidate column is projected
    twice against an orthonormal basis of the columns picked so far
    (classical Gram-Schmidt with reorthogonalisation, CGS2) and is accepted
    when its residual norm exceeds ``linalg.DEFAULT_RTOL`` times the
    Frobenius norm of the picked columns plus the candidate; that residual
    certifies each decision.  An SVD rank test of the same columns picks the
    same set on random couplings, but it can reject a clearly independent
    column when an earlier picked column is tiny, because the condition
    number of the set then exceeds 1/DEFAULT_RTOL; this test accepts it.
    This pass defines the pick; ``_independent_columns_qr`` runs it only
    when a QR factorisation cannot certify the leading columns.
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
        if residual > linalg.DEFAULT_RTOL * math.sqrt(picked_sq + sq_norms[j]):
            basis[found] = v / residual
            basis_h[found] = basis[found].conj()
            picked.append(j)
            picked_sq += sq_norms[j]
    if len(picked) != count:
        raise SingularMatrix(
            f"found only {len(picked)} independent columns where {count} were expected"
        )
    return picked


def _independent_columns_qr(M: np.ndarray, count: int,
                            mode: str) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The pick of ``_greedy_independent_columns`` and the QR factorisation
    (``np.linalg.qr`` in ``mode``) of the picked columns, in pick order.

    The leading ``count`` columns are factorised first.  |R_jj| is the
    residual of column j against the columns before it, the quantity the
    greedy pass compares with DEFAULT_RTOL times the Frobenius norm of
    M[:, :j+1].  When every |R_jj| exceeds twice that threshold, the pass
    would accept each leading column, so the pick is range(count) and this
    QR is returned as is; the factor 2 covers the rounding by which the two
    computed residuals differ.  Otherwise the greedy pass decides the pick
    and the picked columns are factorised.
    """
    M = np.asarray(M, dtype=complex)
    lead = M[:, :count]
    q, r = np.linalg.qr(lead, mode=mode)
    sq_norms = (lead.real ** 2 + lead.imag ** 2).sum(axis=0)
    thresholds = 2.0 * linalg.DEFAULT_RTOL * np.sqrt(np.cumsum(sq_norms))
    if np.all(np.abs(np.diagonal(r)) > thresholds):
        return list(range(count)), q, r
    picked = _greedy_independent_columns(M, count)
    q, r = np.linalg.qr(M[:, picked], mode=mode)
    return picked, q, r


def _picked_first(picked: list[int], size: int) -> list[int]:
    """``picked`` followed by the remaining indices of range(size) in order."""
    rest = np.ones(size, dtype=bool)
    rest[picked] = False
    return picked + np.flatnonzero(rest).tolist()


def _st_reduce(A: np.ndarray, B: np.ndarray, r_b: int):
    """Reduce the pair (A, B) to ST shape; returns (perm, S, T).

    The permutation moves the lexicographically earliest independent
    columns B1 of B to the front.  One complete QR factorisation
    B1 = Q1 R11, with Q = (Q1 Q2), certifies that pick when B1 is made of
    the leading r_b columns (``_independent_columns_qr``).  It gives the
    invertible left factor W^{-1} for W = (B1 Q2) = Q diag(R11, I), so
    that W^{-1} B_perm = (I T; 0 0) with T = R11^{-1} Q1* B2.  The reduced pair
    -W^{-1} A_perm has the rows -R11^{-1} Q1* A_perm over -Q2* A_perm;
    admissibility forces it into the shape (S 0; -T* I) after eliminating
    its lower-right block A22, and S is the Schur complement A11 - A12 A22^{-1} A21;
    ``linalg.inverse`` raises SingularMatrix when A22 is singular at DEFAULT_RTOL.
    """
    n = A.shape[0]
    A, B = linalg.in_range(A, B)  # the reduction is invariant under (A, B) -> (cA, cB)
    picked, q, r = _independent_columns_qr(B, r_b, "complete")
    order = _picked_first(picked, n)
    perm = tuple(order)
    At = A[:, order]
    Bt = B[:, order]

    qh = q.conj().T
    qa = qh @ At
    top = np.linalg.solve(r[:r_b], np.concatenate([qh[:r_b] @ Bt[:, r_b:], qa[:r_b]], axis=1))
    T = top[:, :n - r_b]
    Ap = -np.concatenate([top[:, n - r_b:], qa[r_b:]], axis=0)

    A12, A21, A22 = Ap[:r_b, r_b:], Ap[r_b:, :r_b], Ap[r_b:, r_b:]
    S = linalg.hermitian_part(Ap[:r_b, :r_b] - A12 @ (linalg.inverse(A22) @ A21))
    return perm, S, T


def _from_coupling(convert):
    """``convert`` of a coupling (TypeError for another record) run with numpy's overflow and
    invalid warnings off, as an inf or NaN block fails the record's check; a failed rank pick is
    re-raised as a VertexError naming the scale gap of A and B when the ratio of their largest
    parts overflows, since ``_st_reduce``'s shift then flushes the smaller one to zero."""
    @functools.wraps(convert)
    def converted(c):
        _require_record(c, VertexCoupling)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return convert(c)
        except (SingularMatrix, SingularSBlock) as exc:
            a, b = linalg.largest_part(c.A), linalg.largest_part(c.B)
            if not (a and b and math.isinf(max(a / b, b / a))):
                raise
            gap = abs(math.log10(a) - math.log10(b))
            raise VertexError(f"the largest real or imaginary parts of A and B ({a:.3g} and {b:.3g}) "
                              f"lie a factor of about 1e{gap:.0f} apart, beyond the float range: "
                              "this form's S block cannot be represented") from exc
    return converted


@_once_per_record(VertexCoupling)
@_from_coupling
def to_st_form(c: VertexCoupling) -> STForm:
    """Unique ST form of a coupling, organized by r_b = rank(B); once per coupling."""
    perm, S, T = _st_reduce(np.asarray(c.A), np.asarray(c.B), c.r_b)
    return STForm(n=c.n, r_b=c.r_b, perm=perm, S=linalg.frozen(S), T=linalg.frozen(T))


@_from_coupling
def to_reverse_st_form(c: VertexCoupling) -> ReverseSTForm:
    """Unique reverse ST form, organized by r_a = rank(A).

    The reduction is the ST reduction applied to the swapped pair (B, A),
    which is admissible exactly when (A, B) is.
    """
    perm, S, T = _st_reduce(np.asarray(c.B), np.asarray(c.A), c.r_a)
    return ReverseSTForm(n=c.n, r_a=c.r_a, perm=perm, S=linalg.frozen(S), T=linalg.frozen(T))


def _st_as_pqrs(f: STForm | ReverseSTForm) -> PQRSForm:
    """The form as the PQRS form with r_a = n and r_b = r, its rank: m = r,
    P = T, and Q and R are empty.

    For a reverse ST form this is the PQRS form of the swapped pair (B, A).
    """
    n, r = f.n, len(f.S)
    return PQRSForm(n=n, r_a=n, r_b=r, perm=f.perm, P=f.T, Q=np.zeros((0, n - r), dtype=complex),
                    R=np.zeros((0, r), dtype=complex), S=f.S)


def st_to_matrices(f: STForm, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Assemble (A, B) from an ST form and validate, in original numbering."""
    _require_record(f, STForm)
    return validate(*_pqrs_pair(_st_as_pqrs(f)), tol)


def reverse_st_to_matrices(f: ReverseSTForm, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Assemble (A, B) from a reverse ST form and validate."""
    _require_record(f, ReverseSTForm)
    A, B = _pqrs_pair(_st_as_pqrs(f))
    return validate(B, A, tol)


# ---------------------------------------------------------------------------
# PQRS form
# ---------------------------------------------------------------------------

@_once_per_record(VertexCoupling)
@_from_coupling
def to_pqrs_form(c: VertexCoupling) -> PQRSForm:
    """Unique PQRS form of a coupling, once per coupling: its one ``split`` serves all.

    Built from the ST form: the m = r_a + r_b - n lexicographically
    earliest independent rows of S are permuted to the top (a secondary
    renumbering of the first r_b edges), the dependent rows are expressed
    through them by a unique matrix R, and one more left multiplication
    clears them.  The reduced QR factorisation of the independent rows'
    adjoint both certifies their pick, when they are the leading m rows
    (``_independent_columns_qr``), and gives R.  The extracted diagonal
    block S11 is Hermitian and invertible whenever the edge renumbering
    above succeeded.
    """
    st = to_st_form(c)
    n, r_b = c.n, c.r_b
    m = block_sizes(n, c.r_a, r_b)[0]

    S_st = np.asarray(st.S)
    T_st = np.asarray(st.T)
    S_in = linalg.in_range(S_st)[0]  # the pick and R do not depend on the scale of S
    try:
        picked, q, r = _independent_columns_qr(S_in.conj().T, m, "reduced")
    except SingularMatrix as exc:
        raise SingularSBlock(
            "the Hermitian block of the ST form is numerically rank-deficient "
            f"(expected rank {m}); the PQRS reduction would not be unique"
        ) from exc
    sigma = _picked_first(picked, r_b)
    Tp = T_st[sigma, :]
    perm = tuple(st.perm[i] for i in sigma) + st.perm[r_b:]

    # unique R with bot = -R top, top the picked rows of S_st and bot the
    # others, columns in the ST order: with top* = q r, R* = -r^{-1} q* bot*
    bot = S_in[sigma[m:], :]
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
        S=linalg.frozen(linalg.hermitian_part(S_st[np.ix_(picked, picked)])),
    )


def _b_hat(f: PQRSForm) -> np.ndarray:
    """B-hat = (I 0 P; R I Q; 0 0 0), the matrix multiplying Psi' in the PQRS
    form, in permuted coordinates; TypeError unless ``f`` is a PQRSForm."""
    _require_record(f, PQRSForm)
    m, na, _ = f.block_sizes
    Bh = np.zeros((f.n, f.n), dtype=complex)
    Bh[:m, :m] = np.eye(m)
    Bh[:m, m + na:] = f.P
    Bh[m:m + na, :m] = f.R
    Bh[m:m + na, m:m + na] = np.eye(na)
    Bh[m:m + na, m + na:] = f.Q
    return Bh


@np.errstate(over="ignore", invalid="ignore")  # validate refuses an inf or NaN entry
def _pqrs_pair(f: PQRSForm) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) assembled from PQRS blocks in the original numbering, unvalidated."""
    Bh = _b_hat(f)
    m, na, nb = f.block_sizes
    Rh = np.zeros((f.n, f.n), dtype=complex)
    Rh[:m, :m] = f.S
    Rh[:m, m:m + na] = -f.S @ f.R.conj().T
    Rh[m + na:, :m] = -f.P.conj().T
    Rh[m + na:, m:m + na] = (f.R @ f.P - f.Q).conj().T
    Rh[m + na:, m + na:] = np.eye(nb)
    inv = linalg.inverse_permutation(f.perm)
    return 0.0 - Rh[:, inv], Bh[:, inv]  # 0 - x: zeros stay +0.0, printed as 0.0


def pqrs_to_matrices(f: PQRSForm) -> VertexCoupling:
    """Assemble (A, B) from PQRS blocks, undo the permutation, validate.

    S only needs to be Hermitian here; with a singular S the assembled
    pair is still admissible, but its actual rank of A drops below the
    declared r_a, so the declared ranks match the validated ones only for
    regular S.
    """
    return validate(*_pqrs_pair(f))


# ---------------------------------------------------------------------------
# Projector form
# ---------------------------------------------------------------------------

def to_projector_form(c: VertexCoupling) -> ProjectorForm:
    """Projector description (proj_p, proj_q, proj_c, lam) of a coupling.

    From the PQRS form's ``split`` (proj_z, U, w): proj_q = proj_z projects
    onto Z, proj_c = U U* onto range(X), proj_p onto the rest, which is
    range(Y) with Y = (-P; RP - Q; I), and lam = U diag(w) U* =
    X (X*X)^{-1} S (X*X)^{-1} X* reproduces the scattering matrix through
    the projector formula.
    """
    f = to_pqrs_form(c)
    proj_q, u, w = f.split
    proj_c = u @ u.conj().T
    lam = linalg.hermitian_part((u * w) @ u.conj().T)
    return ProjectorForm(f.n, *linalg.read_only(np.eye(f.n) - proj_q - proj_c, proj_q, proj_c, lam))


def projector_to_matrices(p: ProjectorForm, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Coupling pair (proj_p - lam, proj_q + proj_c) realizing the projector form."""
    _require_record(p, ProjectorForm)
    return validate(p.projector_p - p.lam, p.projector_q + p.projector_c, tol)


# ---------------------------------------------------------------------------
# Parameter counting
# ---------------------------------------------------------------------------

def parameter_count(n: int, r_a: int, r_b: int) -> int:
    """Real parameters of the coupling family with both ranks fixed:
    n^2 - (n - r_a)^2 - (n - r_b)^2."""
    _, na, nb = block_sizes(n, r_a, r_b)
    return n * n - na ** 2 - nb ** 2


def delta_parameters(n: int, r_a: int, r_b: int) -> int:
    """Parameter surplus of the block description over the projector one.

    Delta = 2 [r_a r_b - (r_a + r_b - n)^2]; it equals the count of real
    parameters needed to fix the ranges of the two projectors, which the
    subspace-dimension formula 2 r_a (n - r_a) + 2 (n - r_b)(r_a + r_b - n)
    expresses directly: the two are the same polynomial in (n, r_a, r_b).
    """
    m = block_sizes(n, r_a, r_b)[0]
    return 2 * (r_a * r_b - m ** 2)


def subfamily_count(n: int) -> int:
    """Number of admissible rank pairs (r_a, r_b): (n+1)(n+2)/2."""
    if n < 1:
        raise InvalidRankPair(f"vertex degree must be positive, got {n}")
    return (n + 1) * (n + 2) // 2
