"""Duality verification: rank-of-span versus centraliser-dimension oracles.

The centraliser dimension is computed from the commutant linear system of
the three generator families, compressed onto place-permutation orbit
variables: constancy on orbits disposes of the transposition generators,
value-type preservation kills the mismatched orbits, and the slice-sum
conditions become the remaining linear equations.  The surviving orbits
are read off the H-mask table that membership and the construction use,
and a special tag's off the place masks of ``is_special``.  The span
dimension is the rank of the orbit-compressed Kronecker powers of the
permutation matrices.  Over a field the two numbers must coincide; over
non-field rings the membership-and-reconstruction route is exercised
instead.  The psi side works on one representative pair per diagonal W_n
orbit, and closed forms for both dimensions give a third, elimination-free
derivation in characteristic 0.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

from . import extension as ext
from . import indices as ix
from . import diagrams as dg
from . import tensor as tn
from .invariants import _off_tag_columns, _split_ranks, eta
from .rings import sparse_nullspace
from .rings import sparse_rank as _sparse_rank
from .tensor import DEFAULT_SIZE_CAP, CapExceeded


# n^r bounds r for n >= 2; at n <= 1 the tables still grow with r itself
MAX_R = 10**6


def _check_cap(n, r, unsafe_large):
    if n < 0:
        raise ValueError("n must be non-negative, got %d" % n)
    if not unsafe_large and tn.power_within(n, r, DEFAULT_SIZE_CAP) is None:
        raise CapExceeded(
            "n^r = %d^%d exceeds the default cap %d; pass unsafe_large to override"
            % (n, r, DEFAULT_SIZE_CAP)
        )
    if r > MAX_R:
        raise ValueError("r must be at most %d, got %d" % (MAX_R, r))


# ---------------------------------------------------------------------------
# Orbit-variable setup
# ---------------------------------------------------------------------------


def _live_orbits(n, r, special_tag=None):
    """Orbit variables surviving value-type preservation, the orbits of
    :func:`extension._live_table` (and, optionally, the place-of-value
    matching of a special-invariant tag (p, q), tested at each orbit's
    lead pair with :func:`invariants.is_special`'s place masks)."""
    orbit_of, reps = ix.omega_orbits(n, r)
    keep = ext._live_table(n, r)[1]
    if special_tag is not None:
        p, q = special_tag
        row_masks = [mask for mask, _ in _split_ranks(n, r, p)]
        off, size = _off_tag_columns(n, r, q), n**r
        keep = [s and not off[row_masks[lead // size]][lead % size]
                for s, lead in zip(keep, ix.orbit_table(n, r)[1])]
    live = dict(zip(itertools.compress(range(len(keep)), keep), itertools.count()))
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
    return _invariant_dimension(n, r, ring, None, with_basis, unsafe_large)


def special_invariant_dimension(n, r, ring, tag=None, unsafe_large=False):
    """dim over a field of the special invariants with the given tag
    (default (n, n), the half-algebra identification target)."""
    return _invariant_dimension(n, r, ring, tag or (n, n), False, unsafe_large)


def _invariant_dimension(n, r, ring, tag, with_basis, unsafe_large):
    """Nullity of the slice equations on the tag's live orbits, and with
    no tag optionally a basis, numbered as :func:`extension._from_live`."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    if r == 0:
        return (1, [tn.TensorMatrix.scalar(n, ring, ring.one)]) if with_basis else 1
    _check_cap(n, r, unsafe_large)
    orbit_of, _, live = _live_orbits(n, r, tag)
    rows = _slice_equations(n, r, orbit_of, live)
    if not with_basis:
        return len(live) - _sparse_rank(ring, rows)
    basis = [ext._from_live(ring, n, r, v) for v in sparse_nullspace(ring, rows, len(live))]
    return len(basis), basis


def span_dimension_w(n, r, ring, subgroup="w_n", unsafe_large=False):
    """Rank of the span of the r-th Kronecker powers of the permutation
    matrices of the chosen subgroup."""
    if not ring.is_field():
        raise ValueError("span dimension requires a field")
    if r == 0:
        return 1
    _check_cap(n, r, unsafe_large)
    if subgroup == "w_n":
        perms = ix.all_permutations(n)
    elif subgroup == "w_n_minus_1":
        perms = [w for w in ix.all_permutations(n) if w[n - 1] == n]
    else:
        raise ValueError("unknown subgroup %r" % (subgroup,))
    orbit_of, reps, live = _live_orbits(n, r)
    return _sparse_rank(ring, _span_rows(n, r, perms, orbit_of, live))


def _span_rows(n, r, perms, orbit_of, live):
    """The row of phi(w) on the live orbit variables for each w: its
    nonzero entries sit at the ranks (w.j, j), and w.j has the value type
    of j, so every such orbit is live."""
    size = n**r
    rows = []
    for w in perms:
        act = ix.act_ranks(w, r)
        rows.append({live[orbit_of[act[j] * size + j]]: 1 for j in range(size)})
    return rows


# ---------------------------------------------------------------------------
# The opposite side (sanity oracle, not an acceptance gate)
# ---------------------------------------------------------------------------


def _wn_orbit_classes(n, r):
    """One word i + j per diagonal W_n orbit on I(n,r) x I(n,r): the orbit
    of a pair is the pattern of equal letters along i + j, so the orbits
    are the restricted-growth words of length 2r in at most n letters,
    each letter at most one more than the largest before it."""
    words = [()]
    for _ in range(2 * r):
        words = [w + (a,) for w in words
                 for a in range(min(max(w, default=-1) + 2, n))]
    return words


def _psi_rows(r, words):
    """The row of psi(d) on the W_n classes for each diagram d of rank r.

    Entry (i, j) of psi(d) is 1 exactly when the word i + j is constant on
    every block of d (vertex v reads letter v), and psi(d) commutes with
    W_n, so its value at one word of a class decides the whole class.
    """
    rows = []
    for d in dg.enumerate_diagrams(r):
        links = [(v, block[0]) for block in d.blocks for v in block[1:]]
        rows.append({
            c: 1 for c, word in enumerate(words)
            if all(word[u] == word[v] for u, v in links)
        })
    return rows


def psi_side_dimensions(n, r, ring, unsafe_large=False):
    """(dim End over W_n, rank of the diagram span) -- equal iff the
    diagram representation surjects onto that centraliser."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    _check_cap(n, r, unsafe_large)
    words = _wn_orbit_classes(n, r)
    return len(words), _sparse_rank(ring, _psi_rows(r, words))


# ---------------------------------------------------------------------------
# Closed forms (characteristic 0; elimination-free third derivations)
# ---------------------------------------------------------------------------


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples, parts at most ``largest``."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_length_degree(shape):
    """f^shape, the number of standard Young tableaux, by the hook-length
    formula."""
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    hooks = 1
    for row, part in enumerate(shape):
        for c in range(part):
            hooks *= (part - c) + (heights[c] - row) - 1
    return math.factorial(sum(shape)) // hooks


def closed_form_centraliser_dimension(n, r):
    """dim E(n,r) = sum of (f^lambda)^2 over partitions lambda of n with
    n - lambda_1 <= r (Halverson-Ram)."""
    return sum(_hook_length_degree(shape) ** 2
               for shape in _partitions(n) if n - shape[0] <= r)


def wn_end_dimension(n, r):
    """dim End_{W_n}(V^{(x)r}) = sum over k <= n of the Stirling numbers
    S(2r, k): set partitions of 2r points into at most n blocks."""
    row = [1]  # S(m, k) for k = 0..m, starting at m = 0
    for m in range(1, 2 * r + 1):
        row = [0] + [k * row[k] + row[k - 1] if k < m else row[k - 1]
                     for k in range(1, m + 1)]
    return sum(row[: n + 1])


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
        return self.surjective_phi is not False and not self.witnesses

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
    down and express each in the permutation span.  The report rests on
    the checks inside ``extend`` (membership, restriction and free values
    of the output) and ``express_in_permutation_span`` (exact
    reconstruction), which raise on a failure (exit code 3 from the
    CLI), so ``membership_checks["ok"]`` is always true; at r = 0 there is
    nothing to extend and no sample runs.
    """
    if n == 0:  # refused on every ring, so that field and non-field rings agree
        raise ValueError("n must be positive, got 0")
    if r < 0:
        raise ValueError("r must be non-negative, got %d" % r)
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
        psi_start = time.time()
        psi_dim, psi_rank = psi_side_dimensions(n, r, ring, unsafe_large=unsafe_large)
        report.timings["psi"] = time.time() - psi_start
        report.psi_side = {
            "dim_end_wn": psi_dim,
            "rank_diagram_span": psi_rank,
            "surjective_psi": psi_dim == psi_rank,
        }
    else:
        rng = random.Random(seed)
        checked = samples if r >= 1 else 0
        for _ in range(checked):
            a = ext.extend(random_invariant(n, r - 1, ring, rng))
            ext.express_in_permutation_span(a)
        report.membership_checks = {"ok": True, "samples": checked}
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
    place-permutation orbit variables: X commutes with m when the (a, b)
    entries of m X and X m agree, sums over the nonzeros of row a and of
    column b of m."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    _check_cap(n, r, unsafe_large)
    orbit_of, _ = ix.omega_orbits(n, r)
    size = n**r
    rows = set()
    half = [d for d in dg.enumerate_diagrams(r + 1) if dg.is_half_algebra_member(d)]
    for d in half:
        cols_by_row, rows_by_col = [[] for _ in range(size)], [[] for _ in range(size)]
        for k, v in enumerate(tn.psi_on_fixed_last(d, n, ring).data):
            if v != ring.zero:
                cols_by_row[k // size].append(k % size)
                rows_by_col[k % size].append(k // size)
        for a in range(size):
            for b in range(size):
                vec = {}
                for k in cols_by_row[a]:
                    var = orbit_of[k * size + b]
                    vec[var] = vec.get(var, 0) + 1
                for k in rows_by_col[b]:
                    var = orbit_of[a * size + k]
                    vec[var] = vec.get(var, 0) - 1
                vec = {v: c for v, c in vec.items() if c}
                if vec:
                    rows.add(tuple(sorted(vec.items())))
    orbits = len(ix.orbit_table(n, r)[1])
    return orbits - _sparse_rank(ring, [dict(row) for row in sorted(rows)])
