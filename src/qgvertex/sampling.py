"""Random admissible couplings and Haar-distributed unitaries for testing.

A coupling with prescribed ranks (r_a, r_b) is built from a Haar-like
random unitary whose spectrum is pinned: n - r_a eigenvalues are set to
exactly +1, n - r_b to exactly -1, and the remaining r_a + r_b - n phases
are drawn away from both points so that rank decisions stay crisp.
"""

from __future__ import annotations

import numpy as np

from .coupling import VertexCoupling, validate
from .errors import InvalidRankPair
from .forms import block_sizes

# Smallest angular distance of free eigenvalue phases from 0 and pi.
PHASE_MARGIN = 0.3


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via phase-corrected QR of a Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def admissible_rank_pairs(n: int):
    """All (r_a, r_b) with 0 <= r_a, r_b <= n and r_a + r_b >= n."""
    return [(ra, rb) for ra in range(n + 1) for rb in range(n + 1) if ra + rb >= n]


def random_coupling(
    n: int,
    r_a: int | None = None,
    r_b: int | None = None,
    rng: np.random.Generator | None = None,
    margin: float = PHASE_MARGIN,
) -> VertexCoupling:
    """Random admissible coupling, optionally with prescribed ranks.

    When ranks are omitted they are drawn uniformly from the admissible
    pairs.  Admissibility holds by construction, so the returned record
    always passes ``validate``.
    """
    rng = np.random.default_rng() if rng is None else rng
    if (r_a is None) != (r_b is None):
        raise InvalidRankPair("prescribe both ranks or neither")
    if r_a is None:
        pairs = admissible_rank_pairs(n)
        r_a, r_b = pairs[rng.integers(len(pairs))]
    m, na, nb = block_sizes(n, r_a, r_b)
    lam = np.concatenate(
        [
            np.ones(na, dtype=complex),
            -np.ones(nb, dtype=complex),
            np.exp(1j * rng.uniform(margin, np.pi - margin, size=m) * rng.choice([-1.0, 1.0], size=m)),
        ]
    )
    v = haar_unitary(n, rng)
    # assemble A = V (lam - 1) V* and B = V i(lam + 1) V* directly: the pinned
    # eigenvalues then contribute exact zeros, keeping the ranks crisp (going
    # through U itself would leave 1e-16 noise that a relative rank test on a
    # degenerate matrix would count as full rank)
    a = v @ np.diag(lam - 1.0) @ v.conj().T
    b = v @ np.diag(1j * (lam + 1.0)) @ v.conj().T
    return validate(a, b)
