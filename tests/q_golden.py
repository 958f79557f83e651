"""Golden Q construction outputs on fractional inputs: ``fixtures/q_golden.json``.

Each case holds an input over Q (entries as "p/q" strings, free values
keyed by JSON lists of index tuples) and the ``repr`` of the library's
output, so a comparison pins both the values and their ``Fraction`` raw
type.  The inputs are combinations of permutation powers with
coefficients c/d and free values c'/d for d = 2, 3 and 6, at (3,2) and
(4,2): ``extend`` (from degree 1), ``decompose`` in the ``last-row`` and
``col:1`` bases, and ``express_in_permutation_span``.

The committed file was written by the Fraction-kernel construction of
commit ac2202e, before Q construction moved onto integers.  Needs no
pytest; from the repository root,

    PYTHONPATH=src python tests/q_golden.py --write

rewrites the fixture, and

    PYTHONPATH=src python tests/q_golden.py

recomputes every case, compares it with the fixture by ``repr`` and
checks that each output matrix survives a JSON round trip with its
``Fraction`` values; it exits 1 on any difference.
"""

import json
import os
import random
import sys
from fractions import Fraction

from swdual import extension as ex
from swdual import indices as ix
from swdual import patterns as pt
from swdual import tensor as tn
from swdual.rings import Ring

Q = Ring.rationals()
CELLS = [(3, 2), (4, 2)]
DENOMINATORS = [2, 3, 6]
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "q_golden.json")


def fractional_invariant(n, r, d, rng):
    m = tn.TensorMatrix.zeros(n, r, Q)
    for w in ix.all_permutations(n):
        c = rng.randrange(-3, 4)
        if c:
            m = m.add(tn.phi(w, n, r, Q).scale(Fraction(c, d)))
    return m


def fractional_values(keys, d, rng):
    return {key: Fraction(rng.randrange(-4, 5), d) for key in keys}


def encode_values(values):
    """Keys (u, v) or (k, u, v) as JSON lists, values as "p/q" strings."""
    return [
        [[list(x) if isinstance(x, tuple) else x for x in key], Q.format_value(v)]
        for key, v in values.items()
    ]


def decode_values(encoded):
    return {
        tuple(tuple(x) if isinstance(x, list) else x for x in key): Q.parse_value(v)
        for key, v in encoded
    }


def run_case(case):
    """The library's output on a case's input: a matrix, a list of
    matrices or a coefficient dict."""
    a = tn.TensorMatrix(case["n"], case["r"], Q, [Q.parse_value(v) for v in case["matrix"]])
    f = decode_values(case["values"])
    if case["op"] == "extend":
        return ex.extend(a, f)
    if case["op"] == "decompose":
        return ex.decompose(a, f, basis=case["basis"])
    return ex.express_in_permutation_span(a)


def raw(out):
    """What the fixture pins: entry lists of matrices, coefficient dicts."""
    if isinstance(out, tn.TensorMatrix):
        return out.data
    if isinstance(out, list):
        return [m.data for m in out]
    return out


def matrices(out):
    """The matrices of an output: one, a list, or none for coefficients."""
    if isinstance(out, tn.TensorMatrix):
        return [out]
    return out if isinstance(out, list) else []


def build_cases():
    cases = []
    for n, r in CELLS:
        for d in DENOMINATORS:
            rng = random.Random(1000 * n + 10 * r + d)
            b = fractional_invariant(n, r - 1, d, rng)
            f = fractional_values(pt.build_f(n, r).entries, d, rng)
            cases.append(("extend", None, b, f))
            a = fractional_invariant(n, r, d, rng)
            for basis in ("last-row", "col:1"):
                based = pt.parse_basis(basis, n)
                keys = [based.key(key) for key in pt.build_d(n, r).entries]
                cases.append(("decompose", basis, a, fractional_values(keys, d, rng)))
            cases.append(("express", None, a, {}))
    out = []
    for op, basis, m, values in cases:
        case = {
            "op": op,
            "basis": basis,
            "n": m.n,
            "r": m.r,
            "matrix": [Q.format_value(v) for v in m.data],
            "values": encode_values(values),
        }
        case["expected"] = repr(raw(run_case(case)))
        out.append(case)
    return out


def load_cases():
    with open(PATH) as fh:
        return json.load(fh)


def check():
    """Differences from the fixture and failed JSON round trips, as text."""
    problems = []
    for k, case in enumerate(load_cases()):
        out = run_case(case)
        if repr(raw(out)) != case["expected"]:
            problems.append("case %d (%s %s): output differs" % (k, case["op"], case["basis"]))
        for m in matrices(out):
            back = tn.matrix_from_json(json.loads(json.dumps(tn.matrix_to_json(m))))
            if back.ring != Q or repr(back.data) != repr(m.data):
                problems.append("case %d (%s): JSON round trip differs" % (k, case["op"]))
    return problems


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(PATH, "w") as fh:
            fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(c) for c in build_cases()))
        sys.exit(0)
    problems = check()
    print("\n".join(problems) or "%d cases equal the fixture" % len(load_cases()))
    sys.exit(1 if problems else 0)
