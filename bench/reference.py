"""Reference computations that the benchmark checks program outputs against.

Everything here is written from the definitions with numpy alone, so a
defect in ``qgvertex`` cannot hide inside its own check.
"""

from __future__ import annotations

import numpy as np

#: a CSV row's probabilities must sum to 1 per input edge within this
PROB_SUM_TOL = 1e-9

#: block columns are means of values already in the row, so only rounding
#: in the order of summation may separate them from the recomputed means
BLOCK_MEAN_TOL = 1e-12


def smatrix(A, B, k: float) -> np.ndarray:
    """S(k) = -solve(A + ikB, A - ikB), the defining formula."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return -np.linalg.solve(A + 1j * k * B, A - 1j * k * B)


def limit(A, B, side: str, k: float = 1e6) -> np.ndarray:
    """S at k -> infinity ("high") or k -> 0 ("low") by Richardson extrapolation.

    S(k) is analytic in 1/k near infinity and in k near 0, so 2 S(2k) - S(k)
    (high) and 2 S(k/2) - S(k) at 1/k (low) cancel the first-order term.
    """
    if side == "high":
        return 2.0 * smatrix(A, B, 2.0 * k) - smatrix(A, B, k)
    return 2.0 * smatrix(A, B, 0.5 / k) - smatrix(A, B, 1.0 / k)


def unitarity_defect(S) -> float:
    S = np.asarray(S)
    return float(np.max(np.abs(S @ S.conj().T - np.eye(S.shape[0]))))


def bc_residual(A, B, S, k: float) -> float:
    """max-norm of A (I + S) + ik B (S - I)."""
    S = np.asarray(S)
    eye = np.eye(S.shape[0])
    return float(np.max(np.abs(np.asarray(A) @ (eye + S) + 1j * k * np.asarray(B) @ (S - eye))))


def smatrix_error(A, B, k: float, S, S_ref=None) -> float:
    """Largest of unitarity defect, boundary residual and gap to the reference."""
    S = np.asarray(S)
    S_ref = smatrix(A, B, k) if S_ref is None else S_ref
    return max(unitarity_defect(S), bc_residual(A, B, S, k), float(np.max(np.abs(S - S_ref))))


def k_grid(k_min: float, k_max: float, points: int, scale: str) -> np.ndarray:
    if scale == "log":
        return np.logspace(np.log10(k_min), np.log10(k_max), points)
    return np.linspace(k_min, k_max, points)


def uniform_block_pair(sizes, p: float, q: float, r: float, s: float):
    """(A, B) of the uniform-block PQRS coupling in the identity numbering.

    B = (I 0 P; R I Q; 0 0 0) and A = -(S -SR* 0; 0 0 0; -P* (RP-Q)* I)
    with P = pF, Q = qF, R = rF, S = sF and F all-ones of the block shape.
    """
    m, na, nb = sizes
    n = m + na + nb
    P, Q = p * np.ones((m, nb)), q * np.ones((na, nb))
    R, S = r * np.ones((na, m)), s * np.ones((m, m))
    a, b, c = slice(0, m), slice(m, m + na), slice(m + na, n)
    B = np.zeros((n, n), dtype=complex)
    B[a, a], B[a, c] = np.eye(m), P
    B[b, a], B[b, b], B[b, c] = R, np.eye(na), Q
    A = np.zeros((n, n), dtype=complex)
    A[a, a], A[a, b] = S, -S @ R.T
    A[c, a], A[c, b], A[c, c] = -P.T, (R @ P - Q).T, np.eye(nb)
    return -A, B


def block_means(x: np.ndarray, sizes) -> dict[str, np.ndarray]:
    """Block-pair means of ``x`` (shape (..., n, n)), keyed like sweep columns.

    Cross pairs give ``b{mu}{nu}``; each block gives ``b{mu}{mu}_refl`` (mean
    of the diagonal) and, for blocks of two or more edges, ``b{mu}{mu}_intra``
    (mean of the off-diagonal entries).  Empty blocks are skipped.  Keys are
    inserted in the column order of the CSV.
    """
    x = np.asarray(x)
    edges = np.cumsum((0,) + tuple(sizes))
    out = {}
    for mu in (1, 2, 3):
        for nu in (1, 2, 3):
            smu, snu = sizes[mu - 1], sizes[nu - 1]
            if smu == 0 or snu == 0:
                continue
            blk = x[..., edges[mu - 1]:edges[mu], edges[nu - 1]:edges[nu]]
            if mu != nu:
                out[f"b{mu}{nu}"] = blk.mean(axis=(-2, -1))
                continue
            diag = np.diagonal(blk, axis1=-2, axis2=-1).sum(axis=-1)
            out[f"b{mu}{mu}_refl"] = diag / smu
            if smu > 1:
                out[f"b{mu}{mu}_intra"] = (blk.sum(axis=(-2, -1)) - diag) / (smu * (smu - 1))
    return out


def check_probabilities(probs: np.ndarray, ks, A, B, sample, tol: float) -> tuple[list[str], float]:
    """Check |S_ij(k)|^2 tables: sums per input edge and sampled reference rows.

    ``probs`` has shape (K, n, n) with probs[t, i, j] = |S_ij(ks[t])|^2, so
    summing over i gives the total leaving input edge j.  Returns
    (problems, max_error).
    """
    problems = []
    sum_defect = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if sum_defect > PROB_SUM_TOL:
        problems.append(f"probabilities per input edge miss 1 by {sum_defect:.3e}")
    gap = 0.0
    for t in sample:
        gap = max(gap, float(np.max(np.abs(probs[t] - np.abs(smatrix(A, B, ks[t])) ** 2))))
    if gap > tol:
        problems.append(f"sampled rows miss the reference |S(k)|^2 by {gap:.3e}")
    return problems, max(sum_defect, gap)


def sweep_header(n: int, sizes) -> list[str]:
    cols = ["k"] + [f"S{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    if sizes is not None:
        cols += list(block_means(np.zeros((n, n)), sizes))
    return cols


def check_sweep_csv(path, A, B, sizes, ks, sample, tol: float) -> tuple[list[str], float]:
    """Check a sweep CSV written for coupling (A, B) on grid ``ks``.

    Returns (problems, max_error).  The header, the row count, the k
    column, the probability sums, the block columns and a sample of rows
    against the reference S(k) are all checked.
    """
    n = np.asarray(A).shape[0]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    expected = sweep_header(n, sizes)
    if header != expected:
        return [f"header {header[:4]}... differs from the expected {expected[:4]}..."], 0.0
    if body.shape != (len(ks), len(expected)):
        return [f"table shape {body.shape}, expected {(len(ks), len(expected))}"], 0.0
    problems = []
    if not np.allclose(body[:, 0], ks, rtol=1e-12, atol=0.0):
        problems.append("k column differs from the requested grid")
    probs = body[:, 1:1 + n * n].reshape(-1, n, n)
    found, max_error = check_probabilities(probs, ks, A, B, sample, tol)
    problems += found
    if sizes is not None:
        means = np.stack(list(block_means(probs, sizes).values()), axis=1)
        block_gap = float(np.max(np.abs(body[:, 1 + n * n:] - means)))
        if block_gap > BLOCK_MEAN_TOL:
            problems.append(f"block columns differ from recomputed means by {block_gap:.3e}")
    return problems, max_error
