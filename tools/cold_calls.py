"""Time construction calls made one per fresh interpreter.

    python3 tools/cold_calls.py --src src [--src OTHER/src] [--runs 5]

Each measurement is a new Python process that imports swdual from the
given ``src`` directory, makes the input (the identity over Z/6, of
degree r - 1 for ``extend`` and r for ``decompose`` and ``express``;
``decompose_col1`` decomposes along block column 1, whose summands are
inflated through tables of their own),
times one public call with verification, then a second identical call,
and reports both times and the process's peak RSS.  This is what each
``swd extend`` or ``swd decompose`` invocation pays: every table and
operator the call needs is built inside it.  With two sources the
processes alternate between them, the first source first in odd rounds.
The output is one JSON line per (source, operation, cell) with the
median and quartiles of each quantity over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

# the benchmark's cells, then larger ones
CASES = [
    (op, n, r)
    for n, r in ((4, 3), (5, 2), (5, 3), (5, 4))
    for op in ("extend", "decompose", "express")
] + [("decompose_col1", 5, 3), ("extend", 4, 5), ("decompose", 4, 5), ("decompose_col1", 4, 5),
      ("decompose", 3, 6), ("decompose_col1", 3, 6), ("extend", 8, 2)]

CHILD = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
op, n, r = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
from swdual import extension as ex, rings, tensor as tn
ring = rings.Ring.modular(6)
if op == "extend":
    a = tn.TensorMatrix.identity(n, r - 1, ring)
    call = lambda: ex.extend(a)
elif op.startswith("decompose"):
    a = tn.TensorMatrix.identity(n, r, ring)
    basis = "col:1" if op == "decompose_col1" else "last-row"
    call = lambda: ex.decompose(a, basis=basis)
else:
    a = tn.TensorMatrix.identity(n, r, ring)
    call = lambda: ex.express_in_permutation_span(a)
t0 = time.perf_counter()
call()
t1 = time.perf_counter()
call()
t2 = time.perf_counter()
print(json.dumps({"first_s": t1 - t0, "second_s": t2 - t1,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def one(src, op, n, r):
    out = subprocess.run([sys.executable, "-c", CHILD, src, op, str(n), str(r)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    for op, n, r in CASES:
        got = {src: [] for src in args.src}
        for k in range(args.runs):
            order = args.src if k % 2 == 0 else args.src[::-1]
            for src in order:
                got[src].append(one(src, op, n, r))
        for src in args.src:
            row = {"src": src, "op": op, "cell": [n, r], "runs": args.runs}
            for key in ("first_s", "second_s", "peak_rss_mb"):
                q1, med, q3 = quartiles([m[key] for m in got[src]])
                row[key] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
