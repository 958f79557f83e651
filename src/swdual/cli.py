"""Command-line interface.

Subcommands emit JSON documents (schema "swd/1") on stdout by default;
``--format table`` switches the pattern and matrix outputs to plain-text
grids.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 internal failure (a construction failing its own checks); usage errors
and internal failures print one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import extension as ext
from . import gibson as gb
from . import indices as ix
from . import patterns as pt
from . import verify as vf
from .diagrams import enumerate_diagrams
from .invariants import check_membership
from .rings import Ring
from .tensor import CapExceeded, matrix_from_json, matrix_to_json

SCHEMA = "swd/1"


class UsageError(Exception):
    pass


def _non_negative(text):
    """An argparse type: an integer of at least zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative, got %d" % value)
    return value


def _emit(args, doc, text=None):
    if getattr(args, "format", "json") == "table" and text is not None:
        payload = text if text.endswith("\n") else text + "\n"
    else:
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _report_lines(doc):
    return "\n".join("%s: %s" % (k, doc[k]) for k in sorted(doc))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    ring = Ring.parse(args.ring)
    if args.half:
        report = vf.verify_half(args.n, args.r, ring, unsafe_large=args.unsafe_large)
    else:
        report = vf.verify_duality(
            args.n, args.r, ring, seed=args.seed, unsafe_large=args.unsafe_large
        )
    doc = report.to_json()
    _emit(args, doc, _report_lines(doc))
    return 0 if report.ok else 1


def cmd_dims(args):
    ring = Ring.parse(args.ring)
    if not ring.is_field():
        raise UsageError("dims requires a field ring")
    doc = {
        "schema": SCHEMA,
        "n": args.n,
        "r": args.r,
        "ring": ring.name,
        "centraliser": vf.centraliser_dimension(
            args.n, args.r, ring, unsafe_large=args.unsafe_large
        ),
        "span_w": vf.span_dimension_w(
            args.n, args.r, ring, unsafe_large=args.unsafe_large
        ),
        "free_pattern": len(pt.build_f(args.n, args.r)),
    }
    _emit(args, doc, _report_lines(doc))
    return 0


def cmd_free_pattern(args):
    if args.flavour == "decomposition":
        pattern = pt.build_d(args.n, args.r)
    else:
        pattern = pt.build_f(args.n, args.r)
    pattern = pt.parse_basis(args.basis, args.n).pattern(pattern)
    doc = {"schema": SCHEMA, **pattern.to_json()}
    if pattern.flavour == "decomposition":
        text = pt.render_decomposition_pattern(pattern, columns=args.columns)
    else:
        text = pt.render_pattern(pattern, columns=args.columns)
    _emit(args, doc, text)
    return 0


def cmd_colouring(args):
    if args.block_j is None:
        col = pt.colour(args.n, args.r, args.policy)
    else:
        col = pt.modified_colouring(
            args.n, args.r, args.block_j, args.policy, args.zero_l_closure
        )
    doc = {
        "schema": SCHEMA,
        "n": args.n,
        "r": args.r,
        "policy": args.policy,
        "ones": [ix.format_index(i) for i in col.ones],
    }
    _emit(args, doc, pt.render_colouring(col))
    return 0


def cmd_gibson(args):
    ring = Ring.parse(args.ring)
    basis = gb.gibson_basis(args.n)
    doc = {
        "schema": SCHEMA,
        "n": args.n,
        "rank": (args.n - 1) ** 2 + 1,
        "elements": [
            {"label": label, "one_line": list(w)} for label, w in basis
        ],
    }
    lines = []
    for label, w in basis:
        lines.append(label)
        for row in gb.perm_rows(ring, w):
            lines.append(" ".join(ring.format_value(v) for v in row))
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_enumerate_diagrams(args):
    diags = enumerate_diagrams(args.r)
    doc = {
        "schema": SCHEMA,
        "r": args.r,
        "count": len(diags),
        "diagrams": [d.format() for d in diags],
    }
    _emit(args, doc, "\n".join(d.format() for d in diags))
    return 0


def _load_doc(args):
    if not args.infile:
        raise UsageError("--in <file> is required")
    with open(args.infile) as fh:
        return json.load(fh)


def _load_matrix(args, doc):
    """The input matrix; one over the row cap without --unsafe-large is a
    usage error."""
    try:
        return matrix_from_json(doc, unsafe_large=args.unsafe_large)
    except CapExceeded as e:
        raise UsageError("%s; pass --unsafe-large to override" % e)


def cmd_check_membership(args):
    doc = _load_doc(args)
    matrix = _load_matrix(args, doc["matrix"] if "matrix" in doc else doc)
    report = check_membership(matrix)
    out = {"schema": SCHEMA, **report.to_json()}
    _emit(args, out, _report_lines(out))
    return 0 if report.in_E else 1


def _parse_assignment(ring, values, decomposition=False):
    """Assignment values keyed "(row,col)" or, for decompositions,
    "(j,row,col)"; entry values use the ring's element syntax."""
    out = {}
    for key, v in (values or {}).items():
        key = key.strip()
        if not (key.startswith("(") and key.endswith(")")):
            raise UsageError("malformed assignment key %r" % key)
        parts = [p.strip() for p in key[1:-1].split(",")]
        if decomposition:
            if len(parts) != 3:
                raise UsageError("decomposition keys need (j,row,col): %r" % key)
            out[(int(parts[0]), ix.parse_index(parts[1]), ix.parse_index(parts[2]))] = (
                ring.parse_value(v)
            )
        else:
            if len(parts) != 2:
                raise UsageError("extension keys need (row,col): %r" % key)
            out[(ix.parse_index(parts[0]), ix.parse_index(parts[1]))] = ring.parse_value(v)
    return out


def cmd_extend(args):
    doc = _load_doc(args)
    b = _load_matrix(args, doc["matrix"])
    f = _parse_assignment(b.ring, doc.get("values"))
    a = ext.extend(b, f)
    _emit(args, {"schema": SCHEMA, "matrix": matrix_to_json(a)})
    return 0


def cmd_decompose(args):
    doc = _load_doc(args)
    a = _load_matrix(args, doc["matrix"])
    f = _parse_assignment(a.ring, doc.get("values"), decomposition=True)
    based = pt.parse_basis(args.basis, a.n)
    summands = ext.decompose(a, f, basis=based.name)
    out = {
        "schema": SCHEMA,
        "basis": based.name,
        "summands": [
            {"tag": {"i": i, "j": j}, "matrix": matrix_to_json(s)}
            for (i, j), s in zip(based.tags(), summands)
        ],
    }
    _emit(args, out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swd",
        description="Exact partition-algebra tensor actions and duality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options of more than one subcommand; each takes only those it reads
    shared = {
        "n": (("--n",), {"type": int, "required": True}),
        "r": (("--r",), {"type": _non_negative, "required": True}),
        "ring": (("--ring",), {"default": "q", "help": "z, q, or z/M"}),
        "format": (("--format",), {"choices": ["json", "table"], "default": "json"}),
        "unsafe-large": (
            ("--unsafe-large",), {"dest": "unsafe_large", "action": "store_true"}
        ),
        "in": (("--in",), {"dest": "infile", "default": None}),
        "basis": (("--basis",), {"default": "last-row", "help": "last-row, row:i or col:j"}),
    }

    def command(name, func, help, *options):
        p = sub.add_parser(name, help=help)
        for option in options:
            flags, kwargs = shared[option]
            p.add_argument(*flags, **kwargs)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    p = command(
        "verify", cmd_verify, "duality report for one (n, r, ring) cell",
        "n", "r", "ring", "format", "unsafe-large",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--half", action="store_true")

    command(
        "dims", cmd_dims, "centraliser and span dimensions",
        "n", "r", "ring", "format", "unsafe-large",
    )

    p = command(
        "free-pattern", cmd_free_pattern, "free extension/decomposition pattern",
        "n", "r", "format", "basis",
    )
    p.add_argument(
        "--flavour", choices=["extension", "decomposition"], default="extension"
    )
    p.add_argument("--columns", choices=["used", "all"], default="used")

    p = command(
        "colouring", cmd_colouring, "slice colouring of the injective indices",
        "n", "r", "format",
    )
    p.add_argument("--policy", choices=["largest", "smallest"], default="largest")
    p.add_argument("--block-j", dest="block_j", type=int, default=None)
    p.add_argument(
        "--no-l-closure", dest="zero_l_closure", action="store_false", default=True
    )

    command(
        "gibson", cmd_gibson, "Gibson basis of the GDS matrices", "n", "ring", "format"
    )
    command(
        "enumerate-diagrams", cmd_enumerate_diagrams, "all diagrams of one rank",
        "r", "format",
    )
    command(
        "check-membership", cmd_check_membership, "centraliser membership report",
        "format", "unsafe-large", "in",
    )
    command(
        "extend", cmd_extend, "extend an invariant one degree up", "unsafe-large", "in"
    )
    command(
        "decompose", cmd_decompose, "split an invariant into specials",
        "unsafe-large", "in", "basis",
    )

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    try:
        if getattr(args, "n", 0) < 0:  # on every subcommand that reads --n
            raise UsageError("n must be non-negative, got %d" % args.n)
        return args.func(args)
    except (UsageError, ValueError, KeyError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ext.ConstructionFailure as e:
        print("error: internal failure: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
