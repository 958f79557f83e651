"""Digests of construction outputs: ``fixtures/construction_golden.json``.

Each case names an operation, a cell (n, r) of the matrix it returns or
reads, a ring and a seed.  The input is rebuilt from the seed: a
combination of six permutation powers (all of them for n = 3) with
coefficients in -3..3, over Q divided by 1..6, and free values in -5..5
on the whole pattern.  The
fixture holds the SHA-256 of the ``repr`` of the output: the entry list of
``extend``, the entry lists of the ``decompose`` summands (``last-row`` and
``col:1``), and the coefficient dict of ``express_in_permutation_span``,
whose ``repr`` also pins its order.  Cells run from (3,2) to (5,3) over
Z/4, Z/6, Z and Q.

The committed file was written by the block recursion of commit 31d8410,
before extend, decompose and express became cached integer operators.
Needs no pytest; from the repository root,

    PYTHONPATH=src python tests/construction_golden.py --write

rewrites the fixture, and

    PYTHONPATH=src python tests/construction_golden.py

recomputes every case and compares it with the fixture; it exits 1 on any
difference.
"""

import hashlib
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

CELLS = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]
RINGS = ["z/4", "z/6", "z", "q"]
OPS = [("extend", None), ("decompose", "last-row"), ("decompose", "col:1"), ("express", None)]
PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "construction_golden.json"
)


def _value(rng, ring, bound):
    x = rng.randint(-bound, bound)
    return Fraction(x, rng.randint(1, 6)) if ring.kind == "q" else ring.from_int(x)


def inputs(case):
    """The matrix and free values of a case, rebuilt from its seed."""
    n, r, ring = case["n"], case["r"], Ring.parse(case["ring"])
    rng = random.Random(case["seed"])
    degree = r - 1 if case["op"] == "extend" else r
    a = tn.TensorMatrix.zeros(n, degree, ring)
    perms = ix.all_permutations(n)
    for w in rng.sample(perms, min(6, len(perms))):
        a = a.add(tn.phi(w, n, degree, ring).scale(_value(rng, ring, 3)))
    if case["op"] == "extend":
        keys = pt.build_f(n, r).entries
    elif case["op"] == "decompose":
        based = pt.parse_basis(case["basis"], n)
        keys = [based.key(key) for key in pt.build_d(n, r).entries]
    else:
        keys = []
    return a, {key: _value(rng, ring, 5) for key in keys}


def run_case(case):
    a, f = inputs(case)
    if case["op"] == "extend":
        return ex.extend(a, f)
    if case["op"] == "decompose":
        return ex.decompose(a, f, basis=case["basis"])
    return ex.express_in_permutation_span(a)


def digest(out):
    if isinstance(out, tn.TensorMatrix):
        out = out.data
    elif isinstance(out, list):
        out = [m.data for m in out]
    return hashlib.sha256(repr(out).encode()).hexdigest()


def build_cases():
    cases = []
    for k, ring in enumerate(RINGS):
        for n, r in CELLS:
            for op, basis in OPS:
                case = {"op": op, "basis": basis, "n": n, "r": r, "ring": ring,
                        "seed": 1000 * n + 100 * r + 10 * k + len(cases) % 10}
                case["digest"] = digest(run_case(case))
                cases.append(case)
    return cases


def load_cases():
    with open(PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(PATH, "w") as fh:
            fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(c) for c in build_cases()))
        sys.exit(0)
    problems = [
        "case %d (%s %s %d,%d %s): output differs" % (
            k, c["op"], c["basis"], c["n"], c["r"], c["ring"])
        for k, c in enumerate(load_cases()) if digest(run_case(c)) != c["digest"]
    ]
    print("\n".join(problems) or "%d cases equal the fixture" % len(load_cases()))
    sys.exit(1 if problems else 0)
