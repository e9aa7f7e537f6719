"""Command-line front end.

Subcommands: validate, convert, smatrix, sweep, filter-demo, params.
Documents are read from a path or from standard input with ``-``.
Exit codes: 0 success, 1 I/O or parse error, 2 domain error (inadmissible
coupling, invalid ranks, bad momentum range).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import documents, filters
from .coupling import to_unitary
from .errors import DocumentError, VertexError
from .forms import (
    parameter_count,
    delta_parameters,
    pqrs_to_matrices,
    subfamily_count,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
)
from .linalg import max_norm
from .scattering import bc_residual, smatrix_direct

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def cmd_validate(args) -> int:
    c = documents.as_coupling(documents.loads(_read_text(args.path)))
    params = parameter_count(c.n, c.r_a, c.r_b)
    print(f"valid n={c.n} r_A={c.r_a} r_B={c.r_b} parameters={params}")
    return EXIT_OK


def cmd_convert(args) -> int:
    c = documents.as_coupling(documents.loads(_read_text(args.path)))
    converters = {
        "st": to_st_form,
        "reverse-st": to_reverse_st_form,
        "pqrs": to_pqrs_form,
        "unitary": to_unitary,
        "projector": to_projector_form,
    }
    obj = converters[args.to](c)
    print(documents.dumps(documents.form_to_document(obj)))
    return EXIT_OK


def cmd_smatrix(args) -> int:
    c = documents.as_coupling(documents.loads(_read_text(args.path)))
    s = smatrix_direct(c, args.k)
    entries = np.asarray(s.entries)
    out = {
        "n": c.n,
        "k": args.k,
        "S": documents.matrix_to_json(entries),
        "unitarity_defect": max_norm(entries @ entries.conj().T - np.eye(c.n)),
        "bc_residual": bc_residual(c, s),
    }
    print(documents.dumps(out))
    return EXIT_OK


def _k_grid(k_min: float, k_max: float, points: int, scale: str) -> np.ndarray:
    if not (0.0 < k_min < k_max):
        raise VertexError(f"need 0 < k_min < k_max, got {k_min:g}, {k_max:g}")
    if points < 2:
        raise VertexError(f"need at least 2 points, got {points}")
    if scale == "log":
        return np.logspace(np.log10(k_min), np.log10(k_max), points)
    return np.linspace(k_min, k_max, points)


def cmd_sweep(args) -> int:
    doc = documents._decode(_read_text(args.path))
    c = documents.as_coupling(documents.parse_document(doc))
    ks = _k_grid(args.k_min, args.k_max, args.points, args.scale)
    declared = args.blocks if args.blocks else None
    raw_blocks = doc.get("blocks")  # parse_document accepted a JSON object
    if declared is None and isinstance(raw_blocks, list):
        declared = ",".join(str(b) for b in raw_blocks)
    blocks = None
    if declared:
        try:
            blocks = tuple(int(b) for b in declared.split(","))
        except ValueError as exc:
            raise VertexError(f"bad block sizes {declared!r}") from exc
        if len(blocks) != 3 or sum(blocks) != c.n or any(b < 0 for b in blocks):
            raise VertexError(f"block sizes must be three values summing to n={c.n}")
    table = filters.pair_sweep(c.A, c.B, ks, blocks)
    stream, close = _open_out(args.out)
    try:
        documents.write_sweep_csv(table, stream)
    finally:
        if close:
            stream.close()
    return EXIT_OK


def cmd_filter_demo(args) -> int:
    if args.preset:
        fp = filters.PRESETS[args.preset]
        label = args.preset
    else:
        missing = [name for name in ("n", "ra", "rb", "p", "q", "r", "s")
                   if getattr(args, name) is None]
        if missing:
            raise VertexError("explicit design needs --n --ra --rb --p --q --r --s "
                              f"(missing: {', '.join(missing)})")
        fp = filters.FilterParams(n=args.n, r_a=args.ra, r_b=args.rb,
                                  p=args.p, q=args.q, r=args.r, s=args.s)
        label = "custom"
    form = filters.uniform_block_pqrs(fp)
    c = pqrs_to_matrices(form)
    doc = documents.coupling_to_document(
        c,
        label=label,
        description=(f"uniform-block coupling p={fp.p:g} q={fp.q:g} r={fp.r:g} s={fp.s:g} "
                     f"on blocks {fp.block_sizes}"),
        blocks=fp.block_sizes,
    )
    print(documents.dumps(doc))
    limits = filters.amplitude_limits(fp)
    verdict = filters.classify_branching(fp, args.threshold)
    sys.stderr.write(documents.render_limits_report(fp, limits, verdict, args.threshold))
    return EXIT_OK


def cmd_params(args) -> int:
    params = parameter_count(args.n, args.r_a, args.r_b)
    delta = delta_parameters(args.n, args.r_a, args.r_b)
    families = subfamily_count(args.n)
    print(f"n={args.n} r_A={args.r_a} r_B={args.r_b} "
          f"parameters={params} delta={delta} subfamilies={families}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgvertex",
        description="quantum-graph vertex couplings: forms, scattering, filters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check admissibility of a coupling document")
    p.add_argument("path", help="document path, or - for stdin")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert a coupling to a canonical form")
    p.add_argument("path")
    p.add_argument("--to", required=True,
                   choices=["st", "reverse-st", "pqrs", "unitary", "projector"])
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("smatrix", help="scattering matrix at one momentum")
    p.add_argument("path")
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("sweep", help="|S_ij(k)|^2 over a momentum grid, as CSV")
    p.add_argument("path")
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--scale", choices=["log", "linear"], default="log")
    p.add_argument("--out", default="-")
    p.add_argument("--blocks", default=None,
                   help="comma-separated block sizes for aggregate columns, e.g. 2,2,1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("filter-demo", help="uniform-block branching-filter design")
    p.add_argument("--preset", choices=sorted(filters.PRESETS))
    p.add_argument("--n", type=int)
    p.add_argument("--ra", type=int)
    p.add_argument("--rb", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--threshold", type=float, default=filters.DEFAULT_DOMINANCE)
    p.set_defaults(func=cmd_filter_demo)

    p = sub.add_parser("params", help="parameter counts for a rank pair")
    p.add_argument("n", type=int)
    p.add_argument("r_a", type=int)
    p.add_argument("r_b", type=int)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (VertexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:  # pragma: no cover - thin shim for the console script
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
