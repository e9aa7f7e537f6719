"""JSON documents for couplings and forms, CSV rendering for sweeps.

One self-describing JSON format carries every object: complex numbers are
two-element [re, im] arrays, matrices are nested row-major lists, and
permutations are 1-based edge numberings.  Coupling documents have keys
"n", "A", "B" plus optional metadata ("label", "description", "blocks");
form documents add a "form" discriminator (st, reverse-st, pqrs, unitary,
projector).  Floats are emitted through ``repr`` and therefore re-parse to
identical values.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .coupling import UnitaryForm, VertexCoupling, from_unitary, to_unitary, validate
from .errors import DocumentError
from .filters import SweepTable
from .forms import (
    PQRSForm,
    ProjectorForm,
    ReverseSTForm,
    STForm,
    pqrs_to_matrices,
    projector_to_matrices,
    reverse_st_to_matrices,
    st_to_matrices,
)


def matrix_to_json(m) -> list:
    """Nested [re, im] rows of a matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(rows, shape: tuple[int, int] | None = None, name: str = "matrix") -> np.ndarray:
    """Parse nested [re, im] rows; ``shape`` disambiguates zero-dim blocks."""
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise DocumentError(f"{name}: expected a list of rows")
    try:
        parsed = [[complex(float(v[0]), float(v[1])) for v in row] for row in rows]
    except (TypeError, ValueError, IndexError) as exc:
        raise DocumentError(f"{name}: entries must be [re, im] pairs") from exc
    widths = {len(row) for row in parsed}
    if len(widths) > 1:
        raise DocumentError(f"{name}: rows have unequal lengths")
    if shape is not None:
        r, c = shape
        if len(parsed) != r or (parsed and widths != {c}) or (not parsed and r != 0):
            raise DocumentError(f"{name}: expected shape {shape}, got {len(parsed)} rows")
        return np.array(parsed, dtype=complex).reshape(r, c)
    if not parsed:
        raise DocumentError(f"{name}: cannot infer the shape of an empty matrix")
    return np.array(parsed, dtype=complex)


def _perm_to_json(perm) -> list[int]:
    return [int(i) + 1 for i in perm]


def _perm_from_json(values, n: int) -> tuple[int, ...]:
    if not isinstance(values, list) or sorted(values) != list(range(1, n + 1)):
        raise DocumentError(f"permutation must list 1..{n} exactly once")
    return tuple(int(v) - 1 for v in values)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def coupling_to_document(c: VertexCoupling, label: str | None = None,
                         description: str | None = None,
                         blocks: tuple[int, int, int] | None = None) -> dict:
    doc = {"n": c.n, "A": matrix_to_json(c.A), "B": matrix_to_json(c.B)}
    if label is not None:
        doc["label"] = label
    if description is not None:
        doc["description"] = description
    if blocks is not None:
        doc["blocks"] = [int(b) for b in blocks]
    return doc


def form_to_document(obj) -> dict:
    """JSON document for any form record (or a coupling)."""
    if isinstance(obj, VertexCoupling):
        return coupling_to_document(obj)
    if isinstance(obj, STForm):
        return {"form": "st", "n": obj.n, "r_b": obj.r_b,
                "permutation": _perm_to_json(obj.perm),
                "S": matrix_to_json(obj.S), "T": matrix_to_json(obj.T)}
    if isinstance(obj, ReverseSTForm):
        return {"form": "reverse-st", "n": obj.n, "r_a": obj.r_a,
                "permutation": _perm_to_json(obj.perm),
                "S": matrix_to_json(obj.S), "T": matrix_to_json(obj.T)}
    if isinstance(obj, PQRSForm):
        return {"form": "pqrs", "n": obj.n, "r_a": obj.r_a, "r_b": obj.r_b,
                "permutation": _perm_to_json(obj.perm),
                "P": matrix_to_json(obj.P), "Q": matrix_to_json(obj.Q),
                "R": matrix_to_json(obj.R), "S": matrix_to_json(obj.S)}
    if isinstance(obj, UnitaryForm):
        return {"form": "unitary", "n": obj.n, "U": matrix_to_json(obj.U)}
    if isinstance(obj, ProjectorForm):
        return {"form": "projector", "n": obj.n,
                "P": matrix_to_json(obj.projector_p),
                "Q": matrix_to_json(obj.projector_q),
                "C": matrix_to_json(obj.projector_c),
                "Lambda": matrix_to_json(obj.lam)}
    raise DocumentError(f"cannot serialize object of type {type(obj).__name__}")


def _require_int(doc: dict, key: str) -> int:
    if key not in doc or not isinstance(doc[key], int) or isinstance(doc[key], bool):
        raise DocumentError(f"missing or non-integer field {key!r}")
    return doc[key]


def parse_document(doc: dict, tol: float = linalg.DEFAULT_RTOL):
    """Parse a document into its record; couplings are validated on the way in."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("form", "coupling")
    n = _require_int(doc, "n")
    if n < 1:
        raise DocumentError("n must be a positive integer")
    if kind == "coupling":
        a = matrix_from_json(doc.get("A"), (n, n), "A")
        b = matrix_from_json(doc.get("B"), (n, n), "B")
        return validate(a, b, tol)
    if kind == "st":
        r_b = _require_int(doc, "r_b")
        return STForm(n=n, r_b=r_b, perm=_perm_from_json(doc.get("permutation"), n),
                      S=linalg.frozen(matrix_from_json(doc.get("S"), (r_b, r_b), "S")),
                      T=linalg.frozen(matrix_from_json(doc.get("T"), (r_b, n - r_b), "T")))
    if kind == "reverse-st":
        r_a = _require_int(doc, "r_a")
        return ReverseSTForm(n=n, r_a=r_a, perm=_perm_from_json(doc.get("permutation"), n),
                             S=linalg.frozen(matrix_from_json(doc.get("S"), (r_a, r_a), "S")),
                             T=linalg.frozen(matrix_from_json(doc.get("T"), (r_a, n - r_a), "T")))
    if kind == "pqrs":
        r_a = _require_int(doc, "r_a")
        r_b = _require_int(doc, "r_b")
        m, na, nb = r_a + r_b - n, n - r_a, n - r_b
        if m < 0:
            raise DocumentError("r_a + r_b must be at least n")
        return PQRSForm(n=n, r_a=r_a, r_b=r_b,
                        perm=_perm_from_json(doc.get("permutation"), n),
                        P=linalg.frozen(matrix_from_json(doc.get("P"), (m, nb), "P")),
                        Q=linalg.frozen(matrix_from_json(doc.get("Q"), (na, nb), "Q")),
                        R=linalg.frozen(matrix_from_json(doc.get("R"), (na, m), "R")),
                        S=linalg.frozen(matrix_from_json(doc.get("S"), (m, m), "S")))
    if kind == "unitary":
        return UnitaryForm(n=n, U=linalg.frozen(matrix_from_json(doc.get("U"), (n, n), "U")))
    if kind == "projector":
        return ProjectorForm(
            n=n,
            projector_p=linalg.frozen(matrix_from_json(doc.get("P"), (n, n), "P")),
            projector_q=linalg.frozen(matrix_from_json(doc.get("Q"), (n, n), "Q")),
            projector_c=linalg.frozen(matrix_from_json(doc.get("C"), (n, n), "C")),
            lam=linalg.frozen(matrix_from_json(doc.get("Lambda"), (n, n), "Lambda")),
        )
    raise DocumentError(f"unknown form {kind!r}")


def as_coupling(obj, tol: float = linalg.DEFAULT_RTOL) -> VertexCoupling:
    """Coerce any parsed record to a validated coupling."""
    if isinstance(obj, VertexCoupling):
        return obj
    if isinstance(obj, STForm):
        return st_to_matrices(obj, tol)
    if isinstance(obj, ReverseSTForm):
        return reverse_st_to_matrices(obj, tol)
    if isinstance(obj, PQRSForm):
        return pqrs_to_matrices(obj, tol)
    if isinstance(obj, UnitaryForm):
        return from_unitary(obj, tol)
    if isinstance(obj, ProjectorForm):
        return projector_to_matrices(obj, tol)
    raise DocumentError(f"cannot interpret {type(obj).__name__} as a coupling")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _decode(text: str):
    """JSON value of ``text``; DocumentError when it is not valid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc


def loads(text: str, tol: float = linalg.DEFAULT_RTOL):
    return parse_document(_decode(text), tol)


# ---------------------------------------------------------------------------
# CSV / reports
# ---------------------------------------------------------------------------

def write_sweep_csv(table: SweepTable, stream) -> None:
    """Write a sweep table as CSV; floats use shortest round-trip repr."""
    stream.write(",".join(table.header()) + "\n")
    for row in table.rows():
        stream.write(",".join(repr(v) for v in row) + "\n")


def render_limits_report(fp, limits, classification: str, threshold: float) -> str:
    """Plain-text table of limit amplitudes, closed forms and the verdict."""
    m, na, nb = fp.block_sizes
    lines = [
        f"uniform-block coupling: n={fp.n} r_A={fp.r_a} r_B={fp.r_b} "
        f"blocks {{1}}={m} {{2}}={na} {{3}}={nb}",
        f"constants: p={fp.p:g} q={fp.q:g} r={fp.r:g} s={fp.s:g}",
        f"l_p={limits.l_p} l_q={limits.l_q} l_r={limits.l_r}",
        "",
        f"{'pair':8} {'high-k':>12} {'closed':>12} {'low-k':>12} {'closed':>12}",
    ]
    for pair in sorted(limits.high_k):
        mu, nu = pair
        ch = limits.closed_form_high.get(pair)
        cl = limits.closed_form_low.get(pair)
        lines.append(
            f"{{{mu}}}{{{nu}}}   "
            f"{limits.high_k[pair]:>12.8f} {(f'{ch:>12.8f}' if ch is not None else ' ' * 12)} "
            f"{limits.low_k[pair]:>12.8f} {(f'{cl:>12.8f}' if cl is not None else ' ' * 12)}"
        )
    for mu in sorted(limits.high_k_reflection):
        lines.append(
            f"{{{mu}}}{{{mu}}}r  "
            f"{limits.high_k_reflection[mu]:>12.8f} {' ' * 12} "
            f"{limits.low_k_reflection[mu]:>12.8f}"
        )
        if mu in limits.high_k_intra:
            lines.append(
                f"{{{mu}}}{{{mu}}}t  "
                f"{limits.high_k_intra[mu]:>12.8f} {' ' * 12} "
                f"{limits.low_k_intra[mu]:>12.8f}"
            )
    if limits.mismatches:
        lines.append("")
        lines.append("closed-form values disagreeing with the matrix limits:")
        for miss in limits.mismatches:
            lines.append(
                f"  {miss.side} {{{miss.pair[0]}}}{{{miss.pair[1]}}}: "
                f"closed {miss.closed_form!r} vs matrix {miss.matrix_limit!r}"
            )
    else:
        lines.append("")
        lines.append("all closed-form amplitudes match the matrix limits")
    lines.append(f"branching classification (threshold {threshold:g}): {classification}")
    return "\n".join(lines) + "\n"
