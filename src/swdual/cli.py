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
from functools import lru_cache

from . import extension as ext
from . import gibson as gb
from . import indices as ix
from . import patterns as pt
from . import verify as vf
from .diagrams import enumerate_diagrams
from .invariants import check_membership
from .rings import Ring
from .tensor import matrix_from_json, matrix_to_json, phi

_encode = json.encoder.encode_basestring_ascii

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


def _dumps(doc, pad="\n"):
    """``json.dumps(doc, indent=2, sort_keys=True)`` for string-keyed
    dicts, with each list of strings joined by the C string encoder (the
    standard encoder runs in Python once ``indent`` is set)."""
    inner = pad + "  "
    sep = "," + inner
    if isinstance(doc, dict) and doc:
        return "{%s%s%s}" % (inner, sep.join(
            "%s: %s" % (_encode(k), _dumps(v, inner)) for k, v in sorted(doc.items())), pad)
    if isinstance(doc, (list, tuple)) and doc:
        try:
            body = sep.join(map(_encode, doc))
        except TypeError:  # not all strings
            body = sep.join(_dumps(v, inner) for v in doc)
        return "[%s%s%s]" % (inner, body, pad)
    return json.dumps(doc)


def _emit(args, doc, text=None):
    if getattr(args, "format", "json") == "table" and text is not None:
        payload = text if text.endswith("\n") else text + "\n"
    else:
        payload = _dumps(doc) + "\n"
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
    if args.timings:
        print("timings: %s" % json.dumps(report.timings, sort_keys=True), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_dims(args):
    ring = Ring.parse(args.ring)
    if not ring.is_field():
        raise UsageError("dims requires a field ring")
    # the span walks W_n, which is refused past the bound before any elimination
    span_w = vf.span_dimension_w(args.n, args.r, ring, unsafe_large=args.unsafe_large)
    doc = {
        "schema": SCHEMA,
        "n": args.n,
        "r": args.r,
        "ring": ring.name,
        "centraliser": vf.centraliser_dimension(
            args.n, args.r, ring, unsafe_large=args.unsafe_large
        ),
        "span_w": span_w,
        "free_pattern": len(pt.build_f(args.n, args.r)),
    }
    _emit(args, doc, _report_lines(doc))
    return 0


def cmd_free_pattern(args):
    build, render = {"extension": (pt.build_f, pt.render_pattern),
                     "decomposition": (pt.build_d, pt.render_decomposition_pattern)}[args.flavour]
    pattern = pt.parse_basis(args.basis, args.n).pattern(build(args.n, args.r))
    _emit(args, {"schema": SCHEMA, **pattern.to_json()}, render(pattern, columns=args.columns))
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
    n = args.n
    basis = gb.gibson_basis(n)
    doc = {
        "schema": SCHEMA,
        "n": n,
        "rank": (n - 1) ** 2 + 1,
        "elements": [
            {"label": label, "one_line": list(w)} for label, w in basis
        ],
    }
    text = None
    if args.format == "table":
        lines = []
        for label, w in basis:
            lines.append(label)
            data = phi(w, n, 1, ring).data
            for k in range(0, len(data), n):
                lines.append(" ".join(map(ring.format_value, data[k : k + n])))
        text = "\n".join(lines)
    _emit(args, doc, text)
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
    """The input object and the matrix under its "matrix" key, which
    check-membership alone also reads from the top level."""
    if not args.infile:
        raise UsageError("--in <file> is required")
    with open(args.infile) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError("the input file must hold a JSON object")
    if "matrix" not in doc and args.command != "check-membership":
        raise UsageError('the input needs "matrix", a matrix object')
    return doc, matrix_from_json(doc.get("matrix", doc), args.unsafe_large)


def cmd_check_membership(args):
    _, matrix = _load_doc(args)
    report = check_membership(matrix)
    out = {"schema": SCHEMA, **report.to_json()}
    _emit(args, out, _report_lines(out))
    return 0 if report.in_E else 1


def _spelled_index(tokens, n, r):
    """The multi-index of I(n, r) that ``tokens`` spell, as r values
    ("4", "13", "2") or as one token of r digits ("432"); None if they
    spell none."""
    try:
        idx = ix.parse_index(",".join(tokens), r)
    except ValueError:
        return None
    return idx if all(0 < v <= n for v in idx) else None


def _parse_assignment(ring, values, n, r, decomposition=False):
    """Assignment values keyed "(row,col)" or, for decompositions,
    "(j,row,col)", row and col in I(n, r) and each written as
    ``indices.format_index`` writes it; entry values are strings in the
    ring's element syntax."""
    if values is not None and not isinstance(values, dict):
        raise UsageError('"values" must be an object')
    kind, shape = ("decomposition", "(j,row,col)") if decomposition else (
        "extension", "(row,col)")
    out = {}
    for key, v in (values or {}).items():
        if not isinstance(v, str):
            raise UsageError("value of %s must be a string, got %s" % (key, json.dumps(v)))
        value = ring.parse_value(v)
        key = key.strip()
        tokens = [p.strip() for p in key[1:-1].split(",")]
        if not (key.startswith("(") and key.endswith(")")
                and all(t.isascii() and t.isdigit() for t in tokens)):
            raise UsageError("malformed assignment key %r" % key)
        lead = (int(tokens.pop(0)),) if decomposition else ()
        pairs = set()
        for cut in (1, r):  # the row takes one token or r of them, the column the rest
            row, col = _spelled_index(tokens[:cut], n, r), _spelled_index(tokens[cut:], n, r)
            if row is not None and col is not None:
                pairs.add((row, col))
        if len(pairs) > 1:
            raise UsageError("assignment key %r reads two ways; write both "
                             "indices with commas" % key)
        if not pairs:
            raise UsageError("%s keys need %s: %r" % (kind, shape, key))
        out[lead + pairs.pop()] = value
    return out


def cmd_extend(args):
    doc, b = _load_doc(args)
    f = _parse_assignment(b.ring, doc.get("values"), b.n, b.r + 1)
    a = ext.extend(b, f)
    _emit(args, {"schema": SCHEMA, "matrix": matrix_to_json(a)})
    return 0


def cmd_decompose(args):
    doc, a = _load_doc(args)
    f = _parse_assignment(a.ring, doc.get("values"), a.n, a.r, decomposition=True)
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


@lru_cache(maxsize=None)
def build_parser():
    """The parser of every subcommand, built on the first :func:`main`
    call and kept: parsing leaves it as it was."""
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
        "unsafe-large": (("--unsafe-large",), {
            "dest": "unsafe_large", "action": "store_true",
            "help": "lift the 2^20-entry caps on n^2r and on the rows^2 of a JSON "
                    "matrix; the 2^20-item bound on enumerations stays"}),
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

    p = command("verify", cmd_verify, "duality report for one (n, r, ring) cell",
                "n", "r", "ring", "format", "unsafe-large")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--half", action="store_true")
    p.add_argument("--timings", action="store_true", help="seconds per stage, one line on stderr")

    command("dims", cmd_dims, "centraliser and span dimensions",
            "n", "r", "ring", "format", "unsafe-large")

    p = command("free-pattern", cmd_free_pattern, "free extension/decomposition pattern",
                "n", "r", "format", "basis")
    p.add_argument("--flavour", choices=["extension", "decomposition"], default="extension")
    p.add_argument("--columns", choices=["used", "all"], default="used")

    p = command("colouring", cmd_colouring, "slice colouring of the injective indices",
                "n", "r", "format")
    p.add_argument("--policy", choices=["largest", "smallest"], default="largest")
    p.add_argument("--block-j", dest="block_j", type=int, default=None)
    p.add_argument("--no-l-closure", dest="zero_l_closure", action="store_false", default=True)

    command("gibson", cmd_gibson, "Gibson basis of the GDS matrices", "n", "ring", "format")
    command("enumerate-diagrams", cmd_enumerate_diagrams, "all diagrams of one rank",
            "r", "format")
    command("check-membership", cmd_check_membership, "centraliser membership report",
            "format", "unsafe-large", "in")
    command("extend", cmd_extend, "extend an invariant one degree up", "unsafe-large", "in")
    command("decompose", cmd_decompose, "split an invariant into specials",
            "unsafe-large", "in", "basis")

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
