"""Spans and per-layer counts from wrappers around swdual module functions.

The wrappers live in the benchmark, not in the library: ``Tracer.install``
replaces every module binding of each traced function, including the
copies that ``from``-imports made in other modules (for example
``extension.check_membership`` and ``verify.check_membership``), and
``uninstall`` puts the originals back.  Ring operations are not wrapped:
they are too fine-grained, and their cost shows in the Q versus Z/3
contrast of the ``duality`` workload instead.

A span is ``(name, start, end, parent, op, phase)`` with times from
``time.perf_counter``; ``parent`` is the index of the enclosing span (or -1)
and ``op`` the id of the benchmark operation that caused it.  A function's
self time is its span duration minus the part covered by its child spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

# (module, function) of every wrapped function
TRACED = [
    ("indices", "omega_orbits"),
    ("patterns", "build_f"),
    ("patterns", "build_d"),
    ("patterns", "modified_colouring"),
    ("verify", "_live_orbits"),
    ("verify", "_slice_equations"),
    ("verify", "_sparse_rank"),
    ("verify", "span_dimension_w"),
    ("verify", "psi_side_dimensions"),
    ("diagrams", "enumerate_diagrams"),
    ("tensor", "psi"),
    ("tensor", "phi"),
    ("tensor", "matmul"),
    ("tensor", "matrix_from_json"),
    ("tensor", "matrix_to_json"),
    ("invariants", "check_membership"),
    ("invariants", "theta"),
    ("invariants", "eta"),
    ("invariants", "restrict"),
    ("invariants", "block"),
    ("invariants", "is_special"),
    ("extension", "initialise"),
    ("extension", "extend"),
    ("extension", "decompose"),
    ("extension", "_replay_forced_assignment"),
    ("extension", "express_in_permutation_span"),
]

# functions whose first builds are the set-up; their metrics are read from
# the set-up phase, everything else from the timed passes
SETUP_FUNCTIONS = ("indices.omega_orbits", "patterns.build_f", "patterns.build_d")


def _count_orbits(stats, args, result):
    seen = stats.setdefault("cells", set())
    if args not in seen:
        seen.add(args)
        stats["orbits"] = stats.get("orbits", 0) + len(result[1])


def _count_live(stats, args, result):
    stats["live_vars"] = stats.get("live_vars", 0) + len(result[2])


def _count_rows(stats, args, result):
    stats["rows"] = stats.get("rows", 0) + len(result)


def _count_rank(stats, args, result):
    stats["rows_in"] = stats.get("rows_in", 0) + len(args[1])
    stats["pivots"] = stats.get("pivots", 0) + result


def _count_rejects(stats, args, result):
    stats["rejects"] = stats.get("rejects", 0) + (not result.in_E)


# counts that only a call's arguments or result reveal:
# extra(stats, args, result) adds them to the call's stats
EXTRA = {
    "indices.omega_orbits": _count_orbits,
    "verify._live_orbits": _count_live,
    "verify._slice_equations": _count_rows,
    "verify._sparse_rank": _count_rank,
    "invariants.check_membership": _count_rejects,
}

# every per-layer metric: (name, unit, better)
PER_LAYER = (
    [("indices.omega_orbits.self_s", "s", "lower"),
     ("indices.omega_orbits.calls", "count", "lower"),
     ("indices.omega_orbits.orbits", "count", "lower")]
    + [("patterns.%s.%s" % (f, s), u, "lower")
       for f in ("build_f", "build_d")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("verify._live_orbits.live_vars", "count", "lower"),
       ("verify._slice_equations.self_s", "s", "lower"),
       ("verify._slice_equations.rows", "count", "lower"),
       ("verify._sparse_rank.self_s", "s", "lower"),
       ("verify._sparse_rank.rows_in", "count", "lower"),
       ("verify._sparse_rank.pivots", "count", "lower"),
       ("verify._sparse_rank.useful_ratio", "ratio", "higher"),
       ("verify.span_dimension_w.self_s", "s", "lower"),
       ("verify.psi_side_dimensions.self_s", "s", "lower"),
       ("diagrams.enumerate_diagrams.self_s", "s", "lower"),
       ("tensor.psi.calls", "count", "lower"),
       ("tensor.psi.self_s", "s", "lower"),
       ("invariants.check_membership.calls", "count", "lower"),
       ("invariants.check_membership.self_s", "s", "lower"),
       ("invariants.check_membership.rejects", "count", "lower")]
    + [("%s.%s.%s" % (m, f, s), u, "lower")
       for m, fs in (
           ("extension", ("initialise", "extend", "decompose",
                          "_replay_forced_assignment", "express_in_permutation_span")),
           ("invariants", ("theta", "eta", "restrict", "block", "is_special")),
           ("patterns", ("modified_colouring",)),
           ("tensor", ("phi", "matmul")),
       )
       for f in fs
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("tensor.matrix_from_json.self_s", "s", "lower"),
       ("tensor.matrix_to_json.self_s", "s", "lower"),
       ("cli.json_bytes_in", "count", "lower"),
       ("cli.json_bytes_out", "count", "lower"),
       ("defect_probe.failed", "count", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Wraps the functions in ``TRACED`` and records spans and counts."""

    def __init__(self):
        self.spans = []
        self.stats = {}  # phase -> qualified name -> {"calls", "self_s", ...}
        self.phase = "setup"
        self.op_id = -1
        self._stack = []  # [span index, start, child time]
        self._originals = []  # (module, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "swdual" or name.startswith("swdual.")]
        for mod_name, func_name in TRACED:
            qual = "%s.%s" % (mod_name, func_name)
            original = getattr(sys.modules["swdual." + mod_name], func_name)
            wrapper = self._wrap(qual, original, EXTRA.get(qual))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals = []

    def _wrap(self, qual, fn, extra):
        def traced(*args, **kwargs):
            self._open(qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                stats = self._close()
            if extra is not None:
                extra(stats, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, self.phase])
        self._stack.append([len(self.spans) - 1, self.spans[-1][1], 0.0])

    def _close(self):
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.stats.setdefault(self.phase, {}).setdefault(
            span[0], {"calls": 0, "self_s": 0.0}
        )
        stats["calls"] += 1
        stats["self_s"] += duration - child
        return stats

    @contextmanager
    def op(self, name, op_id):
        """The root span of one benchmark operation."""
        self.op_id = op_id
        self._open("op." + name)
        try:
            yield
        finally:
            self._close()

    def count(self, name, value):
        stats = self.stats.setdefault(self.phase, {}).setdefault(name, {})
        stats["value"] = stats.get("value", 0) + value

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self, passes, probe_failed, overhead_s):
        """Every PER_LAYER metric: set-up functions from the set-up phase,
        everything else as the median over the traced passes."""
        span_counts = {}
        for span in self.spans:
            span_counts[span[5]] = span_counts.get(span[5], 0) + 1

        def stat(phase, qual, key):
            return self.stats.get(phase, {}).get(qual, {}).get(key, 0)

        out = {}
        for name, unit, _ in PER_LAYER:
            qual, key = name.rsplit(".", 1)
            if name == "trace.overhead_s":
                value = overhead_s
            elif name == "trace.spans":
                value = statistics.median(span_counts.get(p, 0) for p in passes)
            elif name == "defect_probe.failed":
                value = probe_failed
            elif qual in SETUP_FUNCTIONS:
                value = stat("setup", qual, key)
            elif name.startswith("cli."):
                value = statistics.median(stat(p, name, "value") for p in passes)
            elif key == "useful_ratio":
                value = statistics.median(
                    stat(p, qual, "pivots") / stat(p, qual, "rows_in")
                    if stat(p, qual, "rows_in") else 0.0
                    for p in passes
                )
            else:
                value = statistics.median(stat(p, qual, key) for p in passes)
            out[name] = {"value": value, "unit": unit}
        return out
