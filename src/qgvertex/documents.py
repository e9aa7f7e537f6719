"""JSON documents for couplings and forms, CSV rendering for sweeps.

One self-describing JSON format carries every object: complex numbers are
two-element [re, im] arrays, matrices are nested row-major lists, and
permutations are 1-based edge numberings.  Coupling documents have keys
"n", "A", "B" plus optional metadata ("label", "description", "blocks");
form documents add a "form" discriminator, a key of ``FORM_KINDS``: that
table, the one list of form kinds, gives each kind's record, rank fields and
block keys, and its conversions from and to a coupling.  Floats are emitted
through ``repr`` and therefore re-parse to identical values.

``dumps`` writes exactly the bytes of ``json.dumps(doc, indent=2)``, whose
indented encoder runs in pure Python.  Each top-level value of a dict
document with str keys that is a non-empty matrix of [re, im] pairs of
finite floats (exact type ``float``) is written with one ``%r`` template;
every other value goes through ``json.dumps(value, indent=2)``, re-indented
by two spaces.  That fallback covers ints, bools, numpy scalars (whose
``%r`` is not their JSON text), NaN and infinities, empty and ragged
matrices, zero-width rows and nested objects.  A document that is not a
dict, or has a key that is not a str, goes to ``json.dumps`` whole.

``write_sweep_csv`` calls ``repr`` once per orbit value of a row and gathers the
cells through the table's orbit map (``filters.SweepTable``), in one share of
rows per usable CPU, each but the first written by a forked worker.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import signal
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import forms, linalg
from .coupling import UnitaryForm, VertexCoupling, _require_record, from_unitary, to_unitary, validate
from .errors import DocumentError, InvalidRankPair
from .filters import SWEEP_BLOCK, FilterParams, SweepTable

#: rows per slice of a sweep CSV, one write each: whole 1024-row blocks wrote a
#: 20000-point fig1 table about 8% more slowly, and held more text at once
CSV_SLICE_ROWS = 32

#: characters per read when the caller copies a worker's share of a sweep CSV
CSV_COPY_CHARS = 1 << 18

#: start of the warning Python >= 3.12 gives on ``os.fork`` in a multi-threaded process
FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"

class FormKind(NamedTuple):
    """A form kind: its record, rank fields, document key -> record field (a form
    document has the keys "form", "n", the rank fields and these, in order), and
    its conversions from a coupling and back to one."""

    record: type
    ranks: tuple[str, ...]
    fields: dict[str, str]
    from_coupling: Callable
    to_coupling: Callable


#: form kind -> its ``FormKind``: the one list of the kinds
FORM_KINDS = {
    "st": FormKind(forms.STForm, ("r_b",), {"permutation": "perm", "S": "S", "T": "T"},
                   forms.to_st_form, forms.st_to_matrices),
    "reverse-st": FormKind(forms.ReverseSTForm, ("r_a",),
                           {"permutation": "perm", "S": "S", "T": "T"},
                           forms.to_reverse_st_form, forms.reverse_st_to_matrices),
    "pqrs": FormKind(forms.PQRSForm, ("r_a", "r_b"),
                     {"permutation": "perm", "P": "P", "Q": "Q", "R": "R", "S": "S"},
                     forms.to_pqrs_form, forms.pqrs_to_matrices),
    "unitary": FormKind(UnitaryForm, (), {"U": "U"}, to_unitary, from_unitary),
    "projector": FormKind(forms.ProjectorForm, (), {"P": "projector_p", "Q": "projector_q",
                                                    "C": "projector_c", "Lambda": "lam"},
                          forms.to_projector_form, forms.projector_to_matrices),
}


def matrix_to_json(m) -> list:
    """Nested [re, im] rows of a matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(rows, shape: tuple[int, int], name: str) -> np.ndarray:
    """Parse nested [re, im] rows into a matrix of ``shape``, which also fixes the
    zero-dim blocks; errors name the matrix ``name``.

    Each entry must be a list of exactly two finite numbers (JSON ints or
    floats, not booleans or strings).
    """
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise DocumentError(f"{name}: expected a list of rows")
    pairs = list(chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list} or not set(map(len, pairs)) <= {2}:
        raise DocumentError(f"{name}: entries must be [re, im] pairs")
    values = list(chain.from_iterable(pairs))
    if not set(map(type, values)) <= {float, int}:
        raise DocumentError(f"{name}: entries must be [re, im] pairs")
    try:
        parts = np.array(values, dtype=float)
    except OverflowError as exc:
        raise DocumentError(f"{name}: entries must be finite") from exc
    if not all(map(math.isfinite, values)):
        raise DocumentError(f"{name}: entries must be finite")
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise DocumentError(f"{name}: rows have unequal lengths")
    r, c = shape
    if len(rows) != r or (rows and widths.pop() != c):
        raise DocumentError(f"{name}: expected shape {shape}, got {len(rows)} rows")
    return parts.view(complex).reshape(r, c)


def _perm_to_json(perm) -> list[int]:
    return [int(i) + 1 for i in perm]


def _perm_from_json(values, n: int) -> tuple[int, ...]:
    if (not isinstance(values, list) or len(values) != n or not set(map(type, values)) <= {int}
            or sorted(values) != list(range(1, n + 1))):
        raise DocumentError(f"permutation must list 1..{n} exactly once")
    return tuple(v - 1 for v in values)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def coupling_to_document(c: VertexCoupling, label: str | None = None,
                         description: str | None = None,
                         blocks: tuple[int, int, int] | None = None) -> dict:
    _require_record(c, VertexCoupling)
    doc = {"n": c.n, "A": matrix_to_json(c.A), "B": matrix_to_json(c.B)}
    if label is not None:
        doc["label"] = label
    if description is not None:
        doc["description"] = description
    if blocks is not None:
        doc["blocks"] = [int(b) for b in blocks]
    return doc


def form_to_document(obj) -> dict:
    """JSON document for any form record (or a coupling); TypeError for another object."""
    if isinstance(obj, VertexCoupling):
        return coupling_to_document(obj)
    for kind, spec in FORM_KINDS.items():
        if isinstance(obj, spec.record):
            doc = {"form": kind, "n": obj.n, **{rank: getattr(obj, rank) for rank in spec.ranks}}
            return doc | {key: (_perm_to_json if f == "perm" else matrix_to_json)(getattr(obj, f))
                          for key, f in spec.fields.items()}
    raise TypeError(f"needs a VertexCoupling or a form record, got {type(obj).__name__}")


def _require_int(doc: dict, key: str) -> int:
    if key not in doc or not isinstance(doc[key], int) or isinstance(doc[key], bool):
        raise DocumentError(f"missing or non-integer field {key!r}")
    return doc[key]


def parse_document(doc: dict):
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
        return validate(a, b)
    if not isinstance(kind, str) or kind not in FORM_KINDS:
        raise DocumentError(f"unknown form {kind!r}")
    spec = FORM_KINDS[kind]
    ranks = [_require_int(doc, key) for key in spec.ranks]
    try:
        shapes = spec.record.layout(n, *ranks)
    except InvalidRankPair as exc:
        raise DocumentError(str(exc)) from exc
    values = {field: _perm_from_json(doc.get(key), n) if field == "perm"
              else linalg.frozen(matrix_from_json(doc.get(key), shapes[field], key))
              for key, field in spec.fields.items()}
    return spec.record(n, *ranks, **values)


def as_coupling(obj) -> VertexCoupling:
    """Coerce any parsed record to a validated coupling; TypeError for another object."""
    if isinstance(obj, VertexCoupling):
        return obj
    for spec in FORM_KINDS.values():
        if isinstance(obj, spec.record):
            return spec.to_coupling(obj)
    raise TypeError(f"needs a VertexCoupling or a form record, got {type(obj).__name__}")


def _matrix_text(rows) -> str | None:
    """``rows`` as ``json.dumps`` writes a top-level value of an indent-2
    object, or None unless it is a non-empty matrix of finite float pairs."""
    if type(rows) is not list or not rows or set(map(type, rows)) != {list}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    pairs = list(chain.from_iterable(rows))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    values = tuple(chain.from_iterable(pairs))
    if set(map(type, values)) != {float} or not all(map(math.isfinite, values)):
        return None
    pair = "[\n        %r,\n        %r\n      ]"
    row = "[\n      " + ",\n      ".join([pair] * widths.pop()) + "\n    ]"
    return ("[\n    " + ",\n    ".join([row] * len(rows)) + "\n  ]") % values


def dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte (see the module docstring)."""
    if type(doc) is not dict or not doc or any(type(key) is not str for key in doc):
        return json.dumps(doc, indent=2)
    items = []
    for key, value in doc.items():
        text = _matrix_text(value)
        if text is None:
            # JSON text holds no raw newline inside a string, so this only
            # indents the value's own lines one level deeper
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _decode(text: str | bytes):
    """JSON value of ``text``, a str or UTF-8 bytes; DocumentError when the bytes are not
    UTF-8, or the text is not valid JSON or nests too deeply."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not valid UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc


def loads(text: str):
    return parse_document(_decode(text))


# ---------------------------------------------------------------------------
# CSV / reports
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_rows(table: SweepTable, stream) -> None:
    """The CSV lines of ``table``'s rows: one ``repr`` per value, gathered through the map."""
    for block in table.rows():
        for start in range(0, len(block), CSV_SLICE_ROWS):
            x = block[start:start + CSV_SLICE_ROWS]
            text = np.array(list(map(repr, x.ravel().tolist())), dtype=object).reshape(x.shape)
            stream.write("\n".join(map(",".join, text[:, table.columns].tolist())) + "\n")


def _fork_writer(share: SweepTable, out) -> int:
    """Fork a worker that writes ``share``'s rows to ``out``; returns its pid.

    The worker leaves through ``os._exit`` on every path, status 0 once ``out``
    is flushed and 1 otherwise, so it never flushes a buffer it inherited nor
    returns into the caller's code.  With the cyclic collector off, it
    finalises no inherited garbage either (a lost file object would flush).
    """
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork in a process with other threads (an
        # OpenBLAS pool, say).  Their locks cannot hang the worker: it calls
        # no BLAS, imports nothing and takes no lock but those fork resets.
        warnings.filterwarnings("ignore", FORK_WARNING, DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        gc.disable()
        _write_rows(share, out)
        out.flush()
        status = 0
    finally:
        os._exit(status)


def write_sweep_csv(table: SweepTable, stream) -> None:
    """Write a sweep table as CSV; floats use shortest round-trip repr.

    Each slice of ``CSV_SLICE_ROWS`` rows calls ``repr`` once per value of
    ``table.values`` and goes to its output in one write, its cells gathered
    through ``table.columns``: one text per symmetry orbit, as ``pair_sweep`` proved.

    The table's row blocks (``SWEEP_BLOCK`` rows each) are split into
    contiguous shares, one per usable CPU (``os.sched_getaffinity``, else
    ``os.cpu_count``) and no more than there are blocks; a platform without
    ``os.fork`` gets one share.  The caller writes the header and the first
    share to ``stream``; each other share is written by a forked worker to an
    unnamed temporary file, which the caller then copies to ``stream`` in
    share order, ``CSV_COPY_CHARS`` at a time, so the text is the same for any
    number of shares.  This one path serves every CPU count: with one share
    it forks nothing.  A worker that fails raises ``OSError``.  Whether the
    writer returns or raises, every worker has exited and been reaped: on an
    error the caller kills those it has not reaped yet.
    """
    stream.write(",".join(table.header()) + "\n")
    blocks = -(-len(table.ks) // SWEEP_BLOCK) or 1  # an empty table is one empty share
    count = min(_usable_cpus(), blocks) if hasattr(os, "fork") else 1
    edges = [SWEEP_BLOCK * (blocks * i // count) for i in range(count + 1)]
    shares = [replace(table, values=table.values[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    files, pids = [], []  # pids: the workers not reaped yet, in share order
    try:
        for share in shares[1:]:
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            pids.append(_fork_writer(share, files[-1]))
        _write_rows(shares[0], stream)
        for out in files:
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pid = pids.pop(0)
            if status:
                raise OSError(f"sweep CSV worker {pid} exited with status {status}")
            out.seek(0)
            shutil.copyfileobj(out, stream, CSV_COPY_CHARS)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in files:
            out.close()


def _report_row(label: str, *cells: float | None) -> str:
    """``label``, then a 12-character column per cell, blank for None."""
    return f"{label:9}" + " ".join(" " * 12 if c is None else f"{c:>12.8f}" for c in cells)


def render_limits_report(fp, limits, classification: str, threshold: float) -> str:
    """Plain-text table of limit amplitudes, closed forms and the verdict."""
    _require_record(fp, FilterParams)
    m, na, nb = fp.block_sizes
    lines = [
        f"uniform-block coupling: n={fp.n} r_A={fp.r_a} r_B={fp.r_b} "
        f"blocks {{1}}={m} {{2}}={na} {{3}}={nb}",
        f"constants: p={fp.p:g} q={fp.q:g} r={fp.r:g} s={fp.s:g}",
        f"l_p={limits.l_p} l_q={limits.l_q} l_r={limits.l_r}",
        "",
        f"{'pair':8} {'high-k':>12} {'closed':>12} {'low-k':>12} {'closed':>12}",
    ]
    for mu, nu in sorted(limits.high_k):
        lines.append(_report_row(f"{{{mu}}}{{{nu}}}", limits.high_k[mu, nu],
                                 limits.closed_form_high.get((mu, nu)), limits.low_k[mu, nu],
                                 limits.closed_form_low.get((mu, nu))))
    for mu in sorted(limits.high_k_reflection):
        lines.append(_report_row(f"{{{mu}}}{{{mu}}}r", limits.high_k_reflection[mu], None,
                                 limits.low_k_reflection[mu]))
        if mu in limits.high_k_intra:
            lines.append(_report_row(f"{{{mu}}}{{{mu}}}t", limits.high_k_intra[mu], None,
                                     limits.low_k_intra[mu]))
    lines.append("")
    if limits.mismatches:
        lines.append("closed-form values disagreeing with the matrix limits:")
        lines += [f"  {miss.side} {{{miss.pair[0]}}}{{{miss.pair[1]}}}: "
                  f"closed {miss.closed_form!r} vs matrix {miss.matrix_limit!r}"
                  for miss in limits.mismatches]
    else:
        lines.append("all closed-form amplitudes match the matrix limits")
    lines.append(f"branching classification (threshold {threshold:g}): {classification}")
    return "\n".join(lines) + "\n"
