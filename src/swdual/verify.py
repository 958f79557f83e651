"""Duality verification: rank-of-span versus centraliser-dimension oracles.

The centraliser dimension is computed from the commutant linear system of
the three generator families, compressed onto place-permutation orbit
variables: constancy on orbits disposes of the transposition generators,
value-type preservation kills the mismatched orbits, and the slice-sum
conditions become the remaining linear equations.  The span dimension is
the rank of the orbit-compressed Kronecker powers of the permutation
matrices.  Over a field the two numbers must coincide; over non-field
rings the membership-and-reconstruction route is exercised instead.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import extension as ext
from . import indices as ix
from . import diagrams as dg
from . import tensor as tn
from .invariants import check_membership, eta

DEFAULT_SIZE_CAP = 1024


class CapExceeded(ValueError):
    pass


def _check_cap(n, r, unsafe_large):
    if n**r > DEFAULT_SIZE_CAP and not unsafe_large:
        raise CapExceeded(
            "n^r = %d exceeds the default cap %d; pass unsafe_large to override"
            % (n**r, DEFAULT_SIZE_CAP)
        )


# ---------------------------------------------------------------------------
# Sparse exact elimination over a field
# ---------------------------------------------------------------------------


def _sparse_rank(ring, rows, pivots=None):
    """Rank of sparse rows (dicts var -> coeff) with leftmost-pivot rule."""
    if pivots is None:
        pivots = {}
    zero = ring.zero
    for row in rows:
        row = dict(row)
        while row:
            var = min(row)
            if var in pivots:
                factor = row.pop(var)
                for v2, c2 in pivots[var].items():
                    if v2 == var:
                        continue
                    nv = ring.sub(row.get(v2, zero), ring.mul(factor, c2))
                    if nv == zero:
                        row.pop(v2, None)
                    else:
                        row[v2] = nv
            else:
                inv = ring.inv(row[var])
                pivots[var] = {v2: ring.mul(inv, c2) for v2, c2 in row.items()}
                break
    return len(pivots)


def _sparse_nullspace(ring, rows, n_vars):
    """Reduced nullspace basis (one vector per free variable)."""
    pivots = {}
    _sparse_rank(ring, rows, pivots)
    # back-substitute to reduced echelon form
    for var in sorted(pivots, reverse=True):
        row = pivots[var]
        for var2 in sorted(pivots):
            if var2 <= var or var2 not in row:
                continue
            factor = row.pop(var2)
            for v3, c3 in pivots[var2].items():
                if v3 == var2:
                    continue
                nv = ring.sub(row.get(v3, ring.zero), ring.mul(factor, c3))
                if nv == ring.zero:
                    row.pop(v3, None)
                else:
                    row[v3] = nv
    free = [v for v in range(n_vars) if v not in pivots]
    basis = []
    for fv in free:
        vec = [ring.zero] * n_vars
        vec[fv] = ring.one
        for pv, row in pivots.items():
            c = row.get(fv)
            if c is not None:
                vec[pv] = ring.neg(c)
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Orbit-variable setup
# ---------------------------------------------------------------------------


def _live_orbits(n, r, special_tag=None):
    """Orbit variables surviving value-type preservation (and, optionally,
    the place-of-value matching of a special-invariant tag)."""
    orbit_of, reps = ix.omega_orbits(n, r)
    live = {}
    for oid, (i, j) in enumerate(reps):
        if ix.value_type(i) != ix.value_type(j):
            continue
        if special_tag is not None:
            p, q = special_tag
            if ix.places_of(i, p) != ix.places_of(j, q):
                continue
        live[oid] = len(live)
    return orbit_of, reps, live


def _slice_equations(n, r, orbit_of, live):
    """Deduplicated slice-sum difference equations on live orbit variables.

    Only the last place is walked.  The unknowns are S_r-orbit variables,
    and a place permutation carrying place alpha to place r maps the
    (alpha, p, q) equations onto (r, p', q') equations over the same
    variables, so the last place alone already yields every equation.
    Inserting at the last place turns the context rank p into the n
    consecutive ranks p*n, ..., p*n + n - 1.
    """
    size = n**r
    rows = set()
    lower = n ** (r - 1)
    for p in range(lower):
        row_ranks = range(p * n, p * n + n)
        for q in range(lower):
            col_ranks = range(q * n, q * n + n)
            sums = []
            for j in range(n):  # column sums of the (r, p, q) minor
                vec = {}
                for i in range(n):
                    oid = orbit_of[row_ranks[i] * size + col_ranks[j]]
                    var = live.get(oid)
                    if var is not None:
                        vec[var] = vec.get(var, 0) + 1
                sums.append(vec)
            for i in range(n):  # row sums
                vec = {}
                for j in range(n):
                    oid = orbit_of[row_ranks[i] * size + col_ranks[j]]
                    var = live.get(oid)
                    if var is not None:
                        vec[var] = vec.get(var, 0) + 1
                sums.append(vec)
            ref = sums[0]
            for vec in sums[1:]:
                diff = dict(ref)
                for var, c in vec.items():
                    nc = diff.get(var, 0) - c
                    if nc:
                        diff[var] = nc
                    else:
                        diff.pop(var, None)
                if diff:
                    rows.add(tuple(sorted(diff.items())))
    return [dict(row) for row in sorted(rows)]


def centraliser_dimension(n, r, ring, with_basis=False, unsafe_large=False):
    """dim over a field of the full diagram-action centraliser.

    Optionally returns a basis in reduced echelon form (a list of
    TensorMatrix values, one per free variable of the commutant system).
    """
    if not ring.is_field():
        raise ValueError("centraliser dimension requires a field")
    if r == 0:
        if with_basis:
            return 1, [tn.TensorMatrix.scalar(n, ring, ring.one)]
        return 1
    _check_cap(n, r, unsafe_large)
    orbit_of, reps, live = _live_orbits(n, r)
    raw_rows = _slice_equations(n, r, orbit_of, live)
    rows = [
        {v: ring.from_int(c) for v, c in row.items() if ring.from_int(c) != ring.zero}
        for row in raw_rows
    ]
    rows = [row for row in rows if row]
    dim = len(live) - _sparse_rank(ring, rows)
    if not with_basis:
        return dim
    basis_vecs = _sparse_nullspace(ring, rows, len(live))
    var_to_oid = {var: oid for oid, var in live.items()}
    size = n**r
    basis = []
    for vec in basis_vecs:
        m = tn.TensorMatrix.zeros(n, r, ring)
        for pos in range(size * size):
            var = live.get(orbit_of[pos])
            if var is not None and vec[var] != ring.zero:
                m.data[pos] = vec[var]
        basis.append(m)
    return dim, basis


def special_invariant_dimension(n, r, ring, tag=None, unsafe_large=False):
    """dim over a field of the special invariants with the given tag
    (default (n, n), the half-algebra identification target)."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    if tag is None:
        tag = (n, n)
    if r == 0:
        return 1
    _check_cap(n, r, unsafe_large)
    orbit_of, reps, live = _live_orbits(n, r, special_tag=tag)
    raw_rows = _slice_equations(n, r, orbit_of, live)
    rows = [
        {v: ring.from_int(c) for v, c in row.items() if ring.from_int(c) != ring.zero}
        for row in raw_rows
    ]
    rows = [row for row in rows if row]
    return len(live) - _sparse_rank(ring, rows)


def span_dimension_w(n, r, ring, subgroup="w_n", unsafe_large=False):
    """Rank of the span of the r-th Kronecker powers of the permutation
    matrices of the chosen subgroup."""
    if not ring.is_field():
        raise ValueError("span dimension requires a field")
    if r == 0:
        return 1
    _check_cap(n, r, unsafe_large)
    orbit_of, reps, live = _live_orbits(n, r)
    if subgroup == "w_n":
        perms = ix.all_permutations(n)
    elif subgroup == "w_n_minus_1":
        perms = [w for w in ix.all_permutations(n) if w[n - 1] == n]
    else:
        raise ValueError("unknown subgroup %r" % (subgroup,))
    rows = []
    one = ring.one
    for w in perms:
        vec = {}
        for oid, var in live.items():
            i, j = reps[oid]
            if ix.act_left(w, j) == i:
                vec[var] = one
        rows.append(vec)
    return _sparse_rank(ring, rows)


# ---------------------------------------------------------------------------
# The opposite side (sanity oracle, not an acceptance gate)
# ---------------------------------------------------------------------------


def _wn_orbit_classes(n, r):
    """Canonical labels for the diagonal W_n orbits on I(n,r) x I(n,r):
    the pattern of first appearances of values along the concatenation,
    which has at most n distinct values."""
    classes = {}
    pairs = []
    for i in ix.all_indices(n, r):
        for j in ix.all_indices(n, r):
            word = i + j
            relabel = {}
            for v in word:
                relabel.setdefault(v, len(relabel) + 1)
            key = tuple(relabel[v] for v in word)
            pairs.append(classes.setdefault(key, len(classes)))
    return pairs, len(classes)


def psi_side_dimensions(n, r, ring, unsafe_large=False):
    """(dim End over W_n, rank of the diagram span) -- equal iff the
    diagram representation surjects onto that centraliser."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    _check_cap(n, r, unsafe_large)
    class_of, n_classes = _wn_orbit_classes(n, r)
    size = n**r
    rows = []
    one = ring.one
    for d in dg.enumerate_diagrams(r):
        m = tn.psi(d, n, ring)
        vec = {}
        for pos in range(size * size):
            if m.data[pos] != ring.zero:
                vec[class_of[pos]] = one  # psi matrices are 0/1 valued
        rows.append(vec)
    return n_classes, _sparse_rank(ring, rows)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    n: int
    r: object  # int, or a string like "2+1/2" for the half algebra
    ring: str
    dim_span_w: int | None = None
    dim_centraliser: int | None = None
    surjective_phi: bool | None = None
    psi_side: dict | None = None
    membership_checks: dict | None = None
    witnesses: list = field(default_factory=list)
    # wall-clock seconds per stage; deliberately left out of to_json so that
    # serialised reports stay deterministic for a given (n, r, ring, seed)
    timings: dict = field(default_factory=dict)

    @property
    def ok(self):
        if self.surjective_phi is False:
            return False
        if self.membership_checks and not self.membership_checks.get("ok", True):
            return False
        return not self.witnesses

    def to_json(self):
        doc = {
            "schema": "swd/1",
            "n": self.n,
            "r": self.r,
            "ring": self.ring,
            "dim_span_w": self.dim_span_w,
            "dim_centraliser": self.dim_centraliser,
            "surjective_phi": self.surjective_phi,
            "ok": self.ok,
        }
        if self.psi_side is not None:
            doc["psi_side"] = self.psi_side
        if self.membership_checks is not None:
            doc["membership_checks"] = self.membership_checks
        if self.witnesses:
            doc["witnesses"] = self.witnesses
        return doc


def random_invariant(n, r, ring, rng, span_bound=3):
    """A random element of the centraliser: a small integer combination of
    Kronecker powers of permutation matrices, mapped into the ring."""
    m = tn.TensorMatrix.zeros(n, r, ring)
    for w in ix.all_permutations(n):
        c = rng.randrange(-span_bound, span_bound + 1)
        if c:
            m = m.add(tn.phi(w, n, r, ring).scale(ring.from_int(c)))
    return m


def verify_duality(n, r, ring, seed=0, samples=5, unsafe_large=False):
    """Field rings: compare span and centraliser dimensions on both sides.

    Non-field rings: construct invariants by extension from one degree
    down and check that each passes membership and is reconstructed
    exactly from the permutation span.
    """
    report = VerificationReport(n=n, r=r, ring=ring.name)
    start = time.time()
    if ring.is_field():
        report.dim_span_w = span_dimension_w(n, r, ring, unsafe_large=unsafe_large)
        report.timings["span"] = time.time() - start
        report.dim_centraliser = centraliser_dimension(
            n, r, ring, unsafe_large=unsafe_large
        )
        report.timings["centraliser"] = time.time() - start - report.timings["span"]
        report.surjective_phi = report.dim_span_w == report.dim_centraliser
        if not report.surjective_phi:
            report.witnesses.append(
                {"kind": "dimension-mismatch", "span": report.dim_span_w,
                 "centraliser": report.dim_centraliser}
            )
        psi_dim, psi_rank = psi_side_dimensions(n, r, ring, unsafe_large=unsafe_large)
        report.psi_side = {
            "dim_end_wn": psi_dim,
            "rank_diagram_span": psi_rank,
            "surjective_psi": psi_dim == psi_rank,
        }
    else:
        rng = random.Random(seed)
        checked = 0
        for _ in range(samples):
            b = random_invariant(n, r - 1, ring, rng) if r >= 1 else None
            a = ext.extend(b, None) if b is not None else None
            if a is None:
                continue
            if not check_membership(a).in_E:
                report.witnesses.append({"kind": "membership-failure"})
                continue
            ext.express_in_permutation_span(a)  # raises if not in the span
            checked += 1
        report.membership_checks = {"ok": not report.witnesses, "samples": checked}
    report.timings["total"] = time.time() - start
    return report


def verify_half(n, r, ring, unsafe_large=False):
    """Verify the half-algebra chain at (n, r + 1/2).

    Checks that excision intertwines the fixed-n permutation powers with
    the rank n-1 powers, that their span has the full centraliser
    dimension one rank down, and that the special-invariant dimension
    agrees.
    """
    if n < 2:
        raise ValueError("half algebra needs n >= 2")
    report = VerificationReport(n=n, r="%d+1/2" % r, ring=ring.name)
    if not ring.is_field():
        raise ValueError("verify-half requires a field ring")
    dim_lower = centraliser_dimension(n - 1, r, ring, unsafe_large=unsafe_large)
    dim_special = special_invariant_dimension(n, r, ring, unsafe_large=unsafe_large)
    report.dim_centraliser = dim_special
    for w in ix.all_permutations(n):
        if w[n - 1] != n:
            continue
        wbar = tuple(w[t] for t in range(n - 1))
        if eta(tn.phi(w, n, r, ring), n, n) != tn.phi(wbar, n - 1, r, ring):
            report.witnesses.append(
                {"kind": "excision-mismatch", "w": list(w)}
            )
    # the span of the excised fixed-n powers is the full lower span
    report.dim_span_w = span_dimension_w(n - 1, r, ring, unsafe_large=unsafe_large)
    report.surjective_phi = (
        dim_special == dim_lower == report.dim_span_w and not report.witnesses
    )
    if dim_special != dim_lower:
        report.witnesses.append(
            {"kind": "half-dimension-mismatch", "special": dim_special,
             "lower": dim_lower}
        )
    return report


def half_commutant_dimension(n, r, ring, unsafe_large=False):
    """dim of the commutant of the restricted half-algebra action,
    computed directly from all half diagrams of rank r+1 on
    place-permutation orbit variables."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    _check_cap(n, r, unsafe_large)
    orbit_of, reps, live = _live_orbits_no_filter(n, r)
    size = n**r
    rows = set()
    half = [d for d in dg.enumerate_diagrams(r + 1) if dg.is_half_algebra_member(d)]
    for d in half:
        m = tn.psi_on_fixed_last(d, n, ring)
        cols_by_row = [
            [k for k in range(size) if m.data[row * size + k] != ring.zero]
            for row in range(size)
        ]
        for a in range(size):
            for b in range(size):
                vec = {}
                for k in cols_by_row[a]:
                    var = live[orbit_of[k * size + b]]
                    vec[var] = vec.get(var, 0) + 1
                for k in range(size):
                    if m.data[k * size + b] != ring.zero:
                        var = live[orbit_of[a * size + k]]
                        vec[var] = vec.get(var, 0) - 1
                vec = {v: c for v, c in vec.items() if c}
                if vec:
                    rows.add(tuple(sorted(vec.items())))
    ring_rows = []
    for row in sorted(rows):
        vec = {v: ring.from_int(c) for v, c in row if ring.from_int(c) != ring.zero}
        if vec:
            ring_rows.append(vec)
    return len(live) - _sparse_rank(ring, ring_rows)


def _live_orbits_no_filter(n, r):
    orbit_of, reps = ix.omega_orbits(n, r)
    live = {oid: oid for oid in range(len(reps))}
    return orbit_of, reps, live
