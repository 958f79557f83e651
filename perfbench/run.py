"""Run one swdual benchmark workload and print its metrics.

    python3 perfbench/run.py --workload duality --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; swdual is imported from ``src/``.  The
run sets up, then repeats passes over the workload's seeded inputs until
``--seconds`` would be exceeded (at least one pass), checks the outputs and
prints two JSON lines: a detail line (provenance, per-pass times, splits,
digests, the defect probe) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the first pass runs
untraced, the rest traced, and the metrics are the per-layer ones.  Spans
and the full result are written under ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "swd_cache_dir": "unset (removed from the environment before import)",
    }


# ---------------------------------------------------------------------------
# Set-up and passes
# ---------------------------------------------------------------------------


def measure_setup(workload_name):
    """Median over fresh interpreters of import plus first builds."""
    samples = []
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, probe, "--workload", workload_name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


class Pass:
    """One pass: its operations, their summed time, and that time in units
    of the mean reference-loop time measured between them."""

    def __init__(self, label, traced, rec):
        self.label = label
        self.traced = traced
        self.ops = rec.ops
        self.seconds = sum(op.seconds for op in rec.ops)
        self.ref_s = statistics.fmean(rec.refs)
        self.ref_units = self.seconds / self.ref_s


def run_passes(workload, seconds, tracer):
    """Repeat passes while the next one is expected to end within
    ``seconds``.  Under tracing the first pass runs untraced, so that the
    tracing overhead can be reported, and at least one traced pass follows."""
    passes = []
    next_op = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and bool(passes)
        label = "pass%d" % len(passes)
        if traced:
            tracer.install()
            tracer.phase = label
        gc.collect()
        tick = time.perf_counter()
        rec = workloads.Recorder(tracer if traced else None,
                                 keep_outputs=not passes, first_op_id=next_op)
        workload.run_pass(rec)
        last = time.perf_counter() - tick
        next_op = rec.next_id
        passes.append(Pass(label, traced, rec))
        if traced:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + last > seconds and (tracer is None or traced):
            return passes


def check_passes(workload, passes):
    """Reasons for every failed operation: errors, first-pass outputs that
    fail their check, and later outputs that differ from the first pass."""
    failures = []
    first = passes[0].ops
    outputs = {(op.kind, op.case): op.output for op in first if op.error is None}
    reference = {(op.kind, op.case): op.digest for op in first}
    for p in passes:
        for op in p.ops:
            if op.error is not None:
                reason = op.error
            elif p is passes[0]:
                try:
                    reason = workload.check(op, outputs)
                except Exception as exc:  # a malformed output fails its check
                    reason = "check raised %s: %s" % (type(exc).__name__, exc)
            elif op.digest != reference.get((op.kind, op.case)):
                reason = "output differs from the first pass"
            else:
                reason = None
            if reason:
                failures.append({"pass": p.label, "op": op.kind,
                                 "case": repr(op.case), "reason": reason[:300]})
    return failures


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "swdual", "__init__.py")):
        print("error: no swdual sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    os.environ.pop("SWD_CACHE_DIR", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    workload_class = workloads.WORKLOADS[args.workload]

    lib = workloads.load_library(ROOT)
    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workloads.setup(lib, workload_class.cells)
    if tracer is not None:
        tracer.uninstall()

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workload_class(lib, args.seed, workdir)
        passes = run_passes(workload, args.seconds, tracer)
        failures = check_passes(workload, passes)
    probe = workload.probe() if hasattr(workload, "probe") else []

    attempted = sum(len(p.ops) for p in passes)
    failed = len(failures)
    untraced = [p for p in passes if not p.traced]
    detail = {
        "provenance": provenance(args),
        "passes": [{"label": p.label, "traced": p.traced, "seconds": p.seconds,
                    "ref_s": p.ref_s, "ref_units": p.ref_units, "ops": len(p.ops)}
                   for p in passes],
        "ops_per_pass": len(passes[0].ops),
        "pass_s": statistics.median(p.seconds for p in untraced),
        "splits": {name: {"s": statistics.median(workload.splits(p.ops)[name] for p in untraced),
                          "ref": statistics.median(workload.splits(p.ops)[name] / p.ref_s
                                                   for p in untraced)}
                   for name in workload.splits(untraced[0].ops)},
        "setup_samples_s": setup_samples,
        "inputs_digest": workload.inputs_digest,
        "outputs_digest": workloads.digest("".join(op.digest or "-" for op in passes[0].ops)),
        "failures": failures[:20],
        "defect_probe": probe,
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_ref": {"value": statistics.median(p.ref_units for p in passes),
                         "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    else:
        traced = [p for p in passes if p.traced]
        overhead = statistics.median(p.seconds for p in traced) - untraced[0].seconds
        metrics = tracer.metrics([p.label for p in traced],
                                 sum(1 for r in probe if r["failed"]), overhead)
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "phase"],
                       "spans": tracer.spans}, fh)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
