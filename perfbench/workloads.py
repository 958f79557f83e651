"""The three benchmark workloads: inputs from a seed, passes, checks.

Each workload is a closed loop with one client in one thread: an
operation starts when the previous one has returned.  Inputs are made once
per run from the seed by the benchmark's own code, and every pass replays
the same inputs, so every pass does the same work and must give
byte-identical outputs.  The outputs of the first pass are checked with the
helpers in ``checks``; later passes are checked by comparing their output
digests with the first pass.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import sys
import time
import types
from collections import namedtuple
from contextlib import nullcontext
from fractions import Fraction

import checks

LIBRARY_MODULES = {
    "ix": "indices",
    "pt": "patterns",
    "vf": "verify",
    "ext": "extension",
    "inv": "invariants",
    "tn": "tensor",
    "cli": "cli",
    "rings": "rings",
}


def load_library(root):
    """Import swdual from ``<root>/src``; callers look functions up through
    the returned module attributes at call time, so traced wrappers apply."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return types.SimpleNamespace(**{
        alias: importlib.import_module("swdual." + mod)
        for alias, mod in LIBRARY_MODULES.items()
    })


def setup(lib, cells):
    """The first builds of the orbit tables and the free patterns."""
    for n, r in cells:
        lib.ix.omega_orbits(n, r)
        lib.pt.build_f(n, r)
        lib.pt.build_d(n, r)


# ---------------------------------------------------------------------------
# Recording operations
# ---------------------------------------------------------------------------


def fingerprint(out):
    """A canonical text form of a library output, for digests."""
    if hasattr(out, "data") and hasattr(out, "ring"):
        return "M%d,%d,%s:%s" % (out.n, out.r, out.ring.name, ",".join(map(str, out.data)))
    if hasattr(out, "to_json"):
        return json.dumps(out.to_json(), sort_keys=True)
    if isinstance(out, (list, tuple)):
        return "[%s]" % ";".join(fingerprint(x) for x in out)
    if isinstance(out, dict):
        return "{%s}" % ";".join("%r=%s" % (k, out[k]) for k in sorted(out))
    if isinstance(out, bytes):
        return hashlib.sha256(out).hexdigest()
    return repr(out)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


REFERENCE_ROUNDS = 40000
REFERENCES_PER_SECOND = 2  # loops run after an operation, per second it took


def reference_seconds():
    """Wall time of a fixed pure-Python dict loop (about 25 ms on a 2-core
    Xeon VM).

    It runs between the operations of a pass, so that a pass can also be
    timed in units of this loop: the speed of a shared VM drifts by 10-15%
    over tens of seconds, and both times move together.  The cyclic
    collector is off meanwhile, so the library's live heap cannot change the
    loop's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(REFERENCE_ROUNDS):
            key = (i & 1023, i % 7)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Op:
    __slots__ = ("kind", "case", "seconds", "digest", "output", "error")

    def __init__(self, kind, case, seconds, digest, output, error):
        self.kind = kind
        self.case = case
        self.seconds = seconds
        self.digest = digest
        self.output = output
        self.error = error


class Recorder:
    """Times each operation of one pass and keeps its output digest.

    ``post`` turns the call's return value into the recorded output outside
    the timed region (the CLI workload reads the emitted file there).  The
    reference loop runs before the first operation and after each one (once
    per half second of the operation, at least once), outside their timed
    regions; ``refs`` keeps its times.
    """

    def __init__(self, tracer=None, keep_outputs=False, first_op_id=0):
        self.tracer = tracer
        self.keep_outputs = keep_outputs
        self.next_id = first_op_id
        self.ops = []
        self.refs = []

    def call(self, kind, case, thunk, post=None):
        op_id = self.next_id
        self.next_id += 1
        error = None
        result = None
        if not self.refs:
            self.refs.append(reference_seconds())
        span = self.tracer.op(kind, op_id) if self.tracer is not None else nullcontext()
        with span:
            start = time.perf_counter()
            try:
                result = thunk()
            except Exception as exc:  # recorded as a failed operation
                error = "%s: %s" % (type(exc).__name__, exc)
            seconds = time.perf_counter() - start
        for _ in range(max(1, round(seconds * REFERENCES_PER_SECOND))):
            self.refs.append(reference_seconds())
        output = post(result) if (post is not None and error is None) else result
        self.ops.append(Op(
            kind, case, seconds,
            None if error else digest(fingerprint(output)),
            output if self.keep_outputs else None,
            error,
        ))
        return None if error else result

    def count(self, name, value):
        if self.tracer is not None:
            self.tracer.count(name, value)


def seconds_where(ops, predicate):
    return sum(op.seconds for op in ops if predicate(op))


# ---------------------------------------------------------------------------
# duality: verify_duality over Q and Z/3
# ---------------------------------------------------------------------------


class Duality:
    """verify_duality on fixed cells; only elimination and the psi side run.

    (5,3) over Q is left out of the pass: one call takes about 20 s, so a
    pass holding it would fit only once into a run.  Q elimination is timed
    at (4,3) and (5,2), beside Z/3 on all three cells.
    """

    name = "duality"
    cells = ((4, 3), (5, 2), (5, 3))
    CASES = ((4, 3, "q"), (5, 2, "q"), (4, 3, "z/3"), (5, 2, "z/3"), (5, 3, "z/3"))

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.seed = seed
        # the seed only orders the cells: over a field verify_duality takes
        # no other input
        self.cases = list(self.CASES)
        random.Random(seed).shuffle(self.cases)
        self.rings = {name: lib.rings.Ring.parse(name) for _, _, name in self.CASES}
        self.inputs_digest = digest(repr(self.cases))

    def run_pass(self, rec):
        lib = self.lib
        for n, r, ring in self.cases:
            rec.call("verify_duality", (n, r, ring), lambda: lib.vf.verify_duality(
                n, r, self.rings[ring], seed=self.seed))

    def check(self, op, outputs):
        n, r, _ = op.case
        doc = op.output.to_json()
        want_e = checks.centraliser_dimension(n, r)
        want_w = checks.wn_end_dimension(n, r)
        if not doc["dim_span_w"] == doc["dim_centraliser"] == want_e:
            return "span %s, centraliser %s, closed form %d" % (
                doc["dim_span_w"], doc["dim_centraliser"], want_e)
        psi = doc["psi_side"]
        if not psi["dim_end_wn"] == psi["rank_diagram_span"] == want_w:
            return "End_Wn %s, diagram span %s, closed form %d" % (
                psi["dim_end_wn"], psi["rank_diagram_span"], want_w)
        if doc["ok"] is not True:
            return "report not ok"
        return None

    @staticmethod
    def splits(ops):
        return {
            "verify_q_s": seconds_where(ops, lambda op: op.case[2] == "q"),
            "verify_fp_s": seconds_where(ops, lambda op: op.case[2] == "z/3"),
        }


# ---------------------------------------------------------------------------
# roundtrip: extend / membership / decompose / express over Z/6 and Z
# ---------------------------------------------------------------------------


class Roundtrip:
    """Seeded integral round trips; construction and self-verification run,
    elimination does not."""

    name = "roundtrip"
    cells = ((4, 3), (5, 2), (5, 3))
    RINGS = ("z/6", "z")
    # extension.decompose raises ConstructionFailure on these cells; the
    # probe runs once per run, outside every timed pass
    PROBE_CELLS = ((6, 2), (6, 3))

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        self.cases = []
        for ring_name in self.RINGS:
            norm = checks.normaliser(ring_name)
            for n, r in self.cells:
                coeffs = {w: rng.randint(-3, 3)
                          for w in itertools.permutations(range(1, n + 1))}
                self.cases.append({
                    "id": (n, r, ring_name),
                    "ring": lib.rings.Ring.parse(ring_name),
                    "b": checks.permutation_combination(n, r - 1, ring_name, coeffs),
                    "f": {e: norm(rng.randint(-5, 5)) for e in lib.pt.build_f(n, r).entries},
                    "g": {e: norm(rng.randint(-5, 5)) for e in lib.pt.build_d(n, r).entries},
                })
        self.inputs_digest = digest(repr([
            (c["id"], c["b"], sorted(c["f"].items()), sorted(c["g"].items()))
            for c in self.cases
        ]))

    def run_pass(self, rec):
        lib = self.lib
        for case in self.cases:
            n, r, _ = cid = case["id"]
            b = lib.tn.TensorMatrix(n, r - 1, case["ring"], list(case["b"]))
            f, g = case["f"], case["g"]
            a = rec.call("extend", cid, lambda: lib.ext.extend(b, f))
            if a is None:
                continue
            rec.call("check_membership", cid, lambda: lib.inv.check_membership(a))
            rec.call("decompose", cid, lambda: lib.ext.decompose(a, g))
            rec.call("decompose_col1", cid, lambda: lib.ext.decompose(a, basis="col:1"))
            rec.call("express", cid, lambda: lib.ext.express_in_permutation_span(a))

    def check(self, op, outputs):
        n, r, ring_name = op.case
        case = next(c for c in self.cases if c["id"] == op.case)
        out = op.output
        if op.kind == "extend":
            return (checks.check_restriction(n, r, ring_name, out.data, case["b"])
                    or checks.check_entries(n, out.data, n**r, case["f"]))
        a = outputs[("extend", op.case)]
        if op.kind == "check_membership":
            # a is a permutation combination (the express check rebuilds it
            # exactly), hence an invariant
            return None if (out.in_G and out.in_H and out.in_S) else "member rejected"
        if op.kind == "decompose":
            tags = [(n, j) for j in range(1, n + 1)]
            reason = checks.check_decomposition(n, r, ring_name, a.data,
                                                [s.data for s in out], tags)
            if reason:
                return reason
            for (j, p, q), value in case["g"].items():
                if out[j - 1].data[checks.rank(n, p) * n**r + checks.rank(n, q)] != value:
                    return "decomposition value at %s not returned verbatim" % ((j, p, q),)
            return None
        if op.kind == "decompose_col1":
            tags = [(k, 1) for k in range(1, n + 1)]
            return checks.check_decomposition(n, r, ring_name, a.data,
                                              [s.data for s in out], tags)
        if op.kind == "express":
            if checks.permutation_combination(n, r, ring_name, out) != a.data:
                return "coefficients do not rebuild the invariant"
            return None
        return "unknown operation %s" % op.kind

    @staticmethod
    def splits(ops):
        return {
            "extend_s": seconds_where(ops, lambda op: op.kind == "extend"),
            "decompose_s": seconds_where(ops, lambda op: op.kind.startswith("decompose")),
            "express_s": seconds_where(ops, lambda op: op.kind == "express"),
            "membership_s": seconds_where(ops, lambda op: op.kind == "check_membership"),
        }

    def probe(self):
        """Decompose the identity at each probe cell over Z/6.

        A probe fails when decompose raises or returns summands that do not
        add up to the identity with the tags of the last block row."""
        lib = self.lib
        results = []
        for n, r in self.PROBE_CELLS:
            ident = lib.tn.TensorMatrix.identity(n, r, lib.rings.Ring.modular(6))
            try:
                parts = lib.ext.decompose(ident)
            except Exception as exc:  # the known defect raises ConstructionFailure
                outcome = "%s: %s" % (type(exc).__name__, exc)
            else:
                outcome = checks.check_decomposition(
                    n, r, "z/6", ident.data, [s.data for s in parts],
                    [(n, j) for j in range(1, n + 1)])
            results.append({"cell": [n, r], "ring": "z/6", "failed": outcome is not None,
                            "outcome": outcome or "ok"})
        return results


# ---------------------------------------------------------------------------
# cli: swd subcommands on JSON files, in process
# ---------------------------------------------------------------------------


def _fmt_index(idx):
    return "".join(str(v) for v in idx)


def _matrix_doc(n, r, ring_name, data):
    size = n**r
    return {"n": n, "r": r, "ring": ring_name, "rows": [
        [checks.format_value(x) for x in data[i * size:(i + 1) * size]]
        for i in range(size)
    ]}


# one swd invocation: argv reads ``infile`` and writes ``outfile``; ``data``
# holds the raw inputs the check needs
CliCall = namedtuple("CliCall", "kind case argv infile outfile data")


def _parse_rows(ring_name, doc):
    norm = checks.normaliser(ring_name)
    return [norm(Fraction(v)) for row in doc["rows"] for v in row]


class Cli:
    """``swd`` through ``cli.main(argv)`` on files in a temporary directory.

    Runs check-membership on invariants (accept, every predicate scanned)
    and on copies perturbed to break H, S and G in turn (reject, exit 1),
    plus extend and decompose, at (4,3) over Z/6 and Q.
    """

    name = "cli"
    cells = ((4, 3),)
    RINGS = ("z/6", "q")
    N, R = 4, 3

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.workdir = workdir
        rng = random.Random(seed)
        n, r = self.N, self.R
        size = n**r
        self.calls = []

        def combination(ring_name, degree):
            coeffs = {w: rng.randint(-3, 3)
                      for w in itertools.permutations(range(1, n + 1))}
            return checks.permutation_combination(n, degree, ring_name, coeffs)

        def write(name, doc):
            path = os.path.join(workdir, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return path

        def add(kind, ring_name, label, command, doc, data):
            stem = "%s-%s-%s" % (ring_name.replace("/", ""), kind, label)
            path = write(stem + ".json", {"schema": "swd/1", **doc})
            out = os.path.join(workdir, stem + ".out.json")
            argv = [command, "--in", path, "--out", out]
            self.calls.append(CliCall(kind, (ring_name, label), argv, path, out, data))

        for ring_name in self.RINGS:
            norm = checks.normaliser(ring_name)
            for label in ("m1", "m2"):
                data = combination(ring_name, r)
                add("accept", ring_name, label, "check-membership",
                    {"matrix": _matrix_doc(n, r, ring_name, data)}, data)
            base = combination(ring_name, r)
            # fixed positions keep a reject's work the same for every seed;
            # the seed picks the invariant and the value added.  H: a nonzero
            # entry at a value-type mismatch; S: one entry of an orbit of
            # three pairs moved; G: the orbit of a pair of constant indices
            # is that pair alone, so only one slice sum changes
            ones, tail2 = (1,) * r, (1,) * (r - 1) + (2,)
            for predicate, (u, v) in (("H", (ones, tail2)), ("S", (tail2, tail2)),
                                      ("G", (ones, ones))):
                data = list(base)
                pos = checks.rank(n, u) * size + checks.rank(n, v)
                data[pos] = norm(data[pos] + rng.randint(1, 5))
                add("reject", ring_name, predicate, "check-membership",
                    {"matrix": _matrix_doc(n, r, ring_name, data)}, data)
            b = combination(ring_name, r - 1)
            f = {e: norm(rng.randint(-5, 5)) for e in lib.pt.build_f(n, r).entries}
            add("extend", ring_name, "b", "extend", {
                "matrix": _matrix_doc(n, r - 1, ring_name, b),
                "values": {"(%s,%s)" % (_fmt_index(u), _fmt_index(v)): checks.format_value(x)
                           for (u, v), x in f.items()},
            }, (b, f))
            a = combination(ring_name, r)
            add("decompose", ring_name, "a", "decompose",
                {"matrix": _matrix_doc(n, r, ring_name, a)}, a)
        hasher = hashlib.sha256()
        for call in self.calls:
            with open(call.infile, "rb") as fh:
                hasher.update(fh.read())
        self.inputs_digest = hasher.hexdigest()

    def run_pass(self, rec):
        lib = self.lib
        for call in self.calls:
            if os.path.exists(call.outfile):
                os.remove(call.outfile)

            def read_output(code, out=call.outfile):
                if not os.path.exists(out):
                    return code, b""
                with open(out, "rb") as fh:
                    return code, fh.read()

            rec.call(call.kind, call.case, lambda: lib.cli.main(call.argv), post=read_output)
            rec.count("cli.json_bytes_in", os.path.getsize(call.infile))
            if os.path.exists(call.outfile):
                rec.count("cli.json_bytes_out", os.path.getsize(call.outfile))

    def check(self, op, outputs):
        lib = self.lib
        n, r = self.N, self.R
        ring_name, label = op.case
        code, payload = op.output
        doc = json.loads(payload)
        data = next(c.data for c in self.calls if c.case == op.case and c.kind == op.kind)
        ring = lib.rings.Ring.parse(ring_name)
        if op.kind == "accept":
            return None if code == 0 and doc["in_E"] is True else "member rejected"
        if op.kind == "reject":
            violation = doc.get("first_violation") or {}
            if code != 1 or doc["in_" + label] is not False or violation.get("kind") != label:
                return "perturbed %s copy: exit %d, report %s" % (label, code, doc)
            return None
        if code != 0:
            return "exit %d" % code
        if op.kind == "extend":
            b, f = data
            want = lib.tn.matrix_to_json(lib.ext.extend(lib.tn.TensorMatrix(n, r - 1, ring, list(b)), f))
            if doc["matrix"] != want:
                return "emitted matrix differs from the library result"
            got = _parse_rows(ring_name, doc["matrix"])
            return (checks.check_restriction(n, r, ring_name, got, b)
                    or checks.check_entries(n, got, n**r, f))
        if op.kind == "decompose":
            parts = lib.ext.decompose(lib.tn.TensorMatrix(n, r, ring, list(data)))
            if [s["matrix"] for s in doc["summands"]] != [lib.tn.matrix_to_json(p) for p in parts]:
                return "emitted summands differ from the library result"
            return checks.check_decomposition(
                n, r, ring_name, data,
                [_parse_rows(ring_name, s["matrix"]) for s in doc["summands"]],
                [(s["tag"]["i"], s["tag"]["j"]) for s in doc["summands"]])
        return "unknown operation %s" % op.kind

    @staticmethod
    def splits(ops):
        return {
            "accept_s": seconds_where(ops, lambda op: op.kind == "accept"),
            "reject_s": seconds_where(ops, lambda op: op.kind == "reject"),
        }


WORKLOADS = {w.name: w for w in (Duality, Roundtrip, Cli)}
