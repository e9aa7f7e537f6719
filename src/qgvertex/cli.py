"""Command-line front end.

Subcommands: validate, convert, smatrix, sweep, filter-demo, params.
Documents are read from a path or from standard input with ``-``.
Exit codes: 0 success, 1 I/O or parse error, 2 domain error (inadmissible
coupling, invalid ranks, bad momentum range, a request too large for memory).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

import numpy as np

from . import documents, filters
from .errors import DocumentError, VertexError
from .forms import parameter_count, delta_parameters, pqrs_to_matrices, subfamily_count
from .linalg import unitarity_defect
from .scattering import bc_residual, smatrix_direct

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _read_coupling(path: str):
    """(validated coupling, decoded JSON) of the UTF-8 document at ``path``, of any form
    kind; ``-`` reads standard input."""
    with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        doc = documents._decode(fh.read())
    return documents.as_coupling(documents.parse_document(doc)), doc


@contextlib.contextmanager
def _output(path: str):
    """Text stream for ``path`` (standard output for ``-``).  An absent ``path``, or a
    regular file with one link and this process's owner and group, is written under a
    sibling name with the file's mode and renamed onto ``path`` when the body returns;
    on any error the sibling is removed, so ``path`` is absent or keeps its earlier
    content.  Anything else (``/dev/null``, a pipe, a symlink) is written in place, as
    a rename would replace it, and an error can leave part of the output there."""
    if path == "-":
        yield sys.stdout
        return
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    ours = (getattr(os, "geteuid", int)(), getattr(os, "getegid", int)())  # Windows: 0, 0
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                               and (st.st_uid, st.st_gid) == ours):
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream
        return
    part = f"{path}.{os.getpid()}.part"
    try:
        stream = open(part, "x", encoding="utf-8", newline="")
    except OSError as exc:
        exc.filename = path  # the error names ``path``, not the sibling
        raise
    try:
        with stream:
            if st is not None:
                os.chmod(part, stat.S_IMODE(st.st_mode))
            yield stream
        os.replace(part, path)
    except BaseException:
        os.remove(part)
        raise


def cmd_validate(args) -> int:
    c, _ = _read_coupling(args.path)
    params = parameter_count(c.n, c.r_a, c.r_b)
    print(f"valid n={c.n} r_A={c.r_a} r_B={c.r_b} parameters={params}")
    return EXIT_OK


def cmd_convert(args) -> int:
    c, _ = _read_coupling(args.path)
    obj = documents.FORM_KINDS[args.to].from_coupling(c)
    print(documents.dumps(documents.form_to_document(obj)))
    return EXIT_OK


def cmd_smatrix(args) -> int:
    c, _ = _read_coupling(args.path)
    s = smatrix_direct(c, args.k)
    entries = np.asarray(s.entries)
    out = {
        "n": c.n,
        "k": args.k,
        "S": documents.matrix_to_json(entries),
        "unitarity_defect": unitarity_defect(entries),
        "bc_residual": bc_residual(c, s),
    }
    print(documents.dumps(out))
    return EXIT_OK


def _k_grid(k_min: float, k_max: float, points: int, scale: str) -> np.ndarray:
    if not (0.0 < k_min < k_max < np.inf):
        raise VertexError(f"need finite 0 < k_min < k_max, got {k_min:g}, {k_max:g}")
    if points < 2:
        raise VertexError(f"need at least 2 points, got {points}")
    with np.errstate(over="ignore"):  # 10**log10(k_max) may overflow, and is replaced
        ks = (np.logspace(np.log10(k_min), np.log10(k_max), points) if scale == "log"
              else np.linspace(k_min, k_max, points))
    ks[0], ks[-1] = k_min, k_max  # 10**log10(k) can miss k by an ulp
    return ks


def cmd_sweep(args) -> int:
    c, doc = _read_coupling(args.path)
    ks = _k_grid(args.k_min, args.k_max, args.points, args.scale)
    blocks = doc.get("blocks")  # parse_document accepted a JSON object
    if args.blocks:
        try:
            blocks = tuple(int(b) for b in args.blocks.split(","))
        except ValueError as exc:
            raise VertexError(f"bad block sizes {args.blocks!r}") from exc
    elif blocks is not None and (type(blocks) is not list
                                 or any(type(b) is not int for b in blocks)):  # as _require_int
        raise VertexError(f"bad block sizes {blocks!r}")
    table = filters.pair_sweep(c.A, c.B, ks, blocks)
    with _output(args.out) as stream:
        documents.write_sweep_csv(table, stream)
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
    limits = filters.amplitude_limits(fp)  # before any output: a refused threshold prints none
    verdict = filters.classify_branching(fp, args.threshold)
    c = pqrs_to_matrices(filters.uniform_block_pqrs(fp))
    doc = documents.coupling_to_document(
        c,
        label=label,
        description=(f"uniform-block coupling p={fp.p:g} q={fp.q:g} r={fp.r:g} s={fp.s:g} "
                     f"on blocks {fp.block_sizes}"),
        blocks=fp.block_sizes,
    )
    print(documents.dumps(doc))
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
    p.add_argument("--to", required=True, choices=list(documents.FORM_KINDS))
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
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:  # pragma: no cover - thin shim for the console script
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
