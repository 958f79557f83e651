"""Count how often a benchmark workload repeats a construction cell.

    python3 tools/cell_reuse.py [--passes 10] [--seed 1]

Runs each workload of ``perfbench/`` in this process for ``--passes``
passes (setup, then passes; no timing) and counts its public
construction calls: ``extend``, ``decompose`` and
``express_in_permutation_span``, made by the workload or, for ``cli``,
by ``cli.main``; calls made inside an operator build are not counted.
A call *repeats* when the same (operation, n, r) was called earlier in
the process, so every operator it applies is already built.  Prints one
JSON line per workload: the calls, the distinct (operation, n, r), the
repeated share over all passes and in the first pass alone.  Run from
the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

PUBLIC = ("extend", "decompose", "express_in_permutation_span")


def counting(lib):
    """Wrap the public entries of ``lib.ext``; returns the call log."""
    log, depth = [], [0]
    for name in PUBLIC:
        fn = getattr(lib.ext, name)

        def wrapper(a, *args, _fn=fn, _name=name, **kwargs):
            if depth[0] == 0:
                r = a.r + 1 if _name == "extend" else a.r
                log.append((_name, a.n, r))
            depth[0] += 1
            try:
                return _fn(a, *args, **kwargs)
            finally:
                depth[0] -= 1

        setattr(lib.ext, name, wrapper)
    return log


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    lib = workloads.load_library(ROOT)
    log = counting(lib)
    for name in sorted(workloads.WORKLOADS):
        cls = workloads.WORKLOADS[name]
        del log[:]
        with tempfile.TemporaryDirectory() as workdir:
            workload = cls(lib, args.seed, workdir)
            workloads.setup(lib, workload.cells)
            first = None
            for k in range(args.passes):
                workload.run_pass(workloads.Recorder())
                if k == 0:
                    first = len(log)
        seen, repeats, first_repeats = set(), 0, 0
        for k, key in enumerate(log):
            if key in seen:
                repeats += 1
                first_repeats += k < first
            seen.add(key)
        print(json.dumps({
            "workload": name, "passes": args.passes, "calls": len(log),
            "distinct_op_cells": len(seen),
            "repeated_share": round(repeats / len(log), 4) if log else None,
            "first_pass_calls": first,
            "first_pass_repeated_share": round(first_repeats / first, 4) if first else None,
        }), flush=True)


if __name__ == "__main__":
    main()
