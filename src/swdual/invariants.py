"""Membership predicates and structure maps for the centraliser algebra.

Working over an arbitrary coefficient ring, an n^r x n^r matrix lies in the
centraliser of the diagram action exactly when it satisfies three
predicates: equal slice sums (G), value-type preservation (H), and
constancy on simultaneous place-permutation orbits (S).  This module
implements those predicates, the restriction map to degree r-1, the block
view, special invariants, and the mutually inverse excision/inflation maps
between special invariants and one rank lower.

Rank layout.  A multi-index i of I(n,r) has the lexicographic rank
sum over places alpha of (i_alpha - 1) * n^(r-alpha), so place alpha has
stride n^(r-alpha), and the entry (i, j) of a matrix sits at
``data[rank(i) * n^r + rank(j)]``.  Inserting the value t at place alpha of
a context p in I(n,r-1) gives the rank ``base + (t-1) * stride``, where
``base`` is the rank with value 1 inserted.  At the last place the stride
is 1: the n rows of every (r, p, q) slice minor are the consecutive rows
``p + (s,)`` of ``data``, and each row of the minor is n consecutive
entries.  Membership runs on tables built once per (n, r), on the first
check of that size, and on C-level list operations: H on a byte mask of
the value-type mismatches, S on the position of each entry's orbit
leader, and G on the one slice-sum kernel (:func:`_context_sums`), which
reads a context's n rows against every q at once; another place alpha is
read through a table that moves place alpha last.  Once S holds, G reads
only the sorted contexts: permuting places 1..r-1 carries a minor to an
equal one, and the sorted context is the least of its orbit, so the
verdict and witness are those of the full walk.  The excision, inflation
and specialness maps work on precomputed rank tables instead of tuples;
:func:`theta` also inflates straight into any block row or column.

One invariance gate, :func:`require_invariant`, refuses a non-invariant
with :class:`NotInvariantError` naming the first violation of
:func:`check_membership`: ``restrict`` and the public constructions of
:mod:`.extension` run it on their input.  The restriction itself,
:func:`_restrict`, sums the n column chunks of each row of the first
block row and checks nothing; the library calls it on matrices already
checked, or on the way to a result that is verified afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, compress

from . import indices as ix
from .rings import Ring, clear_denominators
from .tensor import TensorMatrix, gather


class NotInvariantError(ValueError):
    pass


def require_positive_n(a):
    """Refuse a matrix over I(n,r) with n < 1, which has no slices."""
    if a.n < 1:
        raise ValueError("n must be positive, got %d" % a.n)


# ---------------------------------------------------------------------------
# Membership in the centraliser
# ---------------------------------------------------------------------------


@dataclass
class MembershipReport:
    in_G: bool
    in_H: bool
    in_S: bool
    first_violation: dict | None = field(default=None)

    @property
    def in_E(self):
        return self.in_G and self.in_H and self.in_S

    def to_json(self):
        return {
            "in_G": self.in_G,
            "in_H": self.in_H,
            "in_S": self.in_S,
            "in_E": self.in_E,
            "first_violation": self.first_violation,
        }


@lru_cache(maxsize=None)
def _h_mask(n, r):
    """One byte per entry position of an I(n,r) matrix, row-major: 1 where
    the row and column value types differ, so H asks for a zero there."""
    ids = {}
    vt = [ids.setdefault(ix.value_type(idx), len(ids)) for idx in ix.all_indices(n, r)]
    return b"".join(bytes([v != vi for v in vt]) for vi in vt)


@lru_cache(maxsize=None)
def _orbit_leads(n, r):
    """For each entry position, the position, in row-major order, where its
    orbit (:func:`indices.orbit_table`) first appears.  A tuple of shared
    int objects, one per orbit: the S check gathers through it on every
    call, and an ``array`` would box each item anew."""
    orbit_of, leads = ix.orbit_table(n, r)
    return tuple(map(list(leads).__getitem__, orbit_of))


@lru_cache(maxsize=None)
def _place_last(n, r, alpha):
    """Gather table that moves place alpha last: entry k is the rank of the
    multi-index that reads, with place alpha moved to the end, as the
    multi-index of rank k.  Contexts run over the places before alpha
    (``head``) and after it (``tail``), the value at place alpha last."""
    stride = n ** (r - alpha)
    return tuple(
        head * stride * n + tail + t * stride
        for head in range(n ** (alpha - 1))
        for tail in range(stride)
        for t in range(n)
    )


def _entry_witness(kind, n, r, pos):
    ri, rj = divmod(pos, n**r)
    return {
        "kind": kind,
        "row": ix.format_index(ix.index_from_rank(n, r, ri)),
        "col": ix.format_index(ix.index_from_rank(n, r, rj)),
    }


def check_membership(a, stop_early=False):
    """Evaluate the three centraliser predicates on a matrix.

    The first failing witness (if any) is recorded: for H the first
    nonzero entry, in row-major order, at a value-type mismatch; for S the
    first entry that differs from the first entry of its orbit; for G the
    first (alpha, p, q), in that order, whose slice sums disagree.  With
    ``stop_early`` the report is returned at the first failing predicate.

    H reads ``data`` through the cached byte mask of the mismatches (raw
    zeros are the only falsy values), on the values as they are.  Over Q,
    S and G then read L a, L one common denominator
    (:func:`.rings.clear_denominators`): S compares entries with each
    other and G is homogeneous, so the report and its witness are those of
    a, and no ``Fraction`` is compared.  A common denominator too large to
    clear leaves the values as they are, and is a ``ValueError`` once H
    and S hold.  S compares ``data`` with its gather through the cached
    table of orbit leaders.  G runs one kernel at the last place
    (:func:`_first_bad_minor`).  When S holds, the place permutation
    moving place alpha to the end carries every entry of the (alpha, p, q)
    minor to the equal entry of the (r, p, q) minor, so the two minors
    have the same slice sums: place r decides G at every place, and the
    first failing slice is (1, p, q) for the first bad (p, q) at place r.
    A permutation sigma of places 1..r-1 carries the (r, p, q) minor to
    the equal (r, sigma p, sigma q) minor, so the contexts with
    non-decreasing values decide G (:func:`_sorted_contexts`), and the
    first bad context is sorted, the least of its orbit.  When S fails the
    kernel runs at every place and context, on the matrix gathered
    through the table that moves place alpha last.
    """
    require_positive_n(a)
    n, r, data = a.n, a.r, a.data
    report = MembershipReport(True, True, True)

    # H: value-type preservation
    mask = _h_mask(n, r)
    if any(compress(data, mask)):
        report.in_H = False
        pos = next(compress(compress(range(len(data)), mask), compress(data, mask)))
        report.first_violation = _entry_witness("H", n, r, pos)
        if stop_early:
            return report

    too_large = None
    if a.ring.kind == "q":
        try:
            data = clear_denominators(data)[1]
        except ValueError as error:
            too_large = error
        else:
            a = TensorMatrix(n, r, Ring.integers(), data)

    # S: constancy on simultaneous place-permutation orbits
    led = list(map(data.__getitem__, _orbit_leads(n, r)))
    if led != data:
        report.in_S = False
        if report.first_violation is None:
            pos = next(k for k, (x, y) in enumerate(zip(led, data)) if x != y)
            report.first_violation = _entry_witness("S", n, r, pos)
        if stop_early:
            return report

    # G: all slice sums for a context pair agree, at every place; under S
    # place r and its sorted contexts decide every place, and the first bad
    # slice is at place 1
    if r == 0:
        return report
    if too_large is not None and report.in_H and report.in_S:
        raise too_large
    contexts = _sorted_contexts(n, r) if report.in_S else range(n ** (r - 1))
    for alpha in (r,) if report.in_S else range(1, r + 1):
        table = _place_last(n, r, alpha)
        bad = _first_bad_minor(a if alpha == r else gather(a, n, table, table), contexts)
        if bad is not None:
            report.in_G = False
            if report.first_violation is None:
                report.first_violation = {
                    "kind": "G",
                    "alpha": 1 if report.in_S else alpha,
                    "p": ix.format_index(ix.index_from_rank(n, r - 1, bad[0])),
                    "q": ix.format_index(ix.index_from_rank(n, r - 1, bad[1])),
                }
            break
    return report


def is_invariant(a):
    return check_membership(a, stop_early=True).in_E


def require_invariant(a):
    """Raise NotInvariantError naming the first violation unless ``a`` is
    an invariant."""
    report = check_membership(a, stop_early=True)
    if not report.in_E:
        raise NotInvariantError(
            "input is not an invariant; first violation: %s"
            % json.dumps(report.first_violation, sort_keys=True)
        )


# ---------------------------------------------------------------------------
# Slice sums, restriction, blocks
# ---------------------------------------------------------------------------


def _context_sums(a, p):
    """The slice sums at the last place of the context p (a rank in
    I(n,r-1)) against every context q at once.

    The n rows ``p + (s,)`` are contiguous in ``a.data``; within a row the
    n entries of each minor are consecutive, so the strided runs
    ``row[u::n]`` zipped together give the row sums, and the rows zipped
    together give the column sums.  Returns ``(rows, cols)`` with
    ``rows[s][q]`` the s-th row sum and ``cols[q * n + t]`` the t-th column
    sum of the (r, p, q) minor.
    """
    n, size, data = a.n, a.size, a.data
    sums = a.ring.sums
    start = p * n * size
    rows = [data[k : k + size] for k in range(start, start + n * size, size)]
    return [sums(zip(*[row[u::n] for u in range(n)])) for row in rows], sums(zip(*rows))


def _minor_sums(rows, cols, q, n):
    """The n row sums, then the n column sums, of one minor from
    :func:`_context_sums`."""
    return [row[q] for row in rows] + cols[q * n : q * n + n]


@lru_cache(maxsize=None)
def _sorted_contexts(n, r):
    """Ranks, in increasing order, of the contexts p in I(n,r-1) whose
    values do not decrease: the least p of each orbit of the permutations
    of places 1..r-1, which decide G once S holds."""
    return tuple(
        ix.index_rank(n, p) for p in combinations_with_replacement(range(1, n + 1), r - 1)
    )


def _first_bad_minor(a, contexts):
    """Ranks (p, q), in that order, of the first minor at the last place
    whose 2n slice sums disagree, or None, reading only the contexts p in
    ``contexts``, increasing ranks."""
    n = a.n
    for p in contexts:
        rows, cols = _context_sums(a, p)
        first = rows[0]
        if rows.count(first) == n and all(cols[t::n] == first for t in range(n)):
            continue
        for q, value in enumerate(first):
            if _minor_sums(rows, cols, q, n).count(value) != 2 * n:
                return p, q
    return None


def block(a, i, j):
    """The (i, j) block A^i_j as a TensorMatrix of degree r-1.

    Rows and columns are re-indexed by the forgetful map dropping the
    leading term of each multi-index.
    """
    if a.r < 1:
        raise ValueError("degree-zero matrices have no blocks")
    n, r, ring = a.n, a.r, a.ring
    out = TensorMatrix(n, r - 1, ring)
    size = out.size
    # lexicographic layout: block (i, j) is a contiguous size x size window
    row0 = (i - 1) * size
    col0 = (j - 1) * size
    for bi in range(size):
        src = (row0 + bi) * a.size + col0
        out.data[bi * size : (bi + 1) * size] = a.data[src : src + size]
    return out


def _restrict(a):
    """The restriction of an invariant, checking nothing: the first block
    row sum, one degree lower, read straight from the n column chunks of
    each row of the first block row."""
    n, size, data = a.n, a.size, a.data
    width = size // n
    sums = a.ring.sums
    offsets = range(0, size, width)
    out = []
    for k in range(0, width * size, size):
        out.extend(sums(zip(*[data[k + o : k + o + width] for o in offsets])))
    return TensorMatrix(n, a.r - 1, a.ring, out)


def restrict(a):
    """The restriction: the matrix of common slice sums, one degree lower.

    The input is checked first (n, then the degree, then membership), so a
    non-invariant is refused with :class:`NotInvariantError` naming its
    first violation instead of being restricted.
    """
    require_positive_n(a)
    if a.r < 1:
        raise ValueError("cannot restrict a degree-zero matrix")
    require_invariant(a)
    return _restrict(a)


# ---------------------------------------------------------------------------
# Special invariants and the excision/inflation isomorphisms
# ---------------------------------------------------------------------------


def _split_ranks(n, r, v):
    """For each u of I(n,r), in lexicographic order: the bitmask of the
    places holding v (first place highest), and the rank in I(n-1, r-k),
    k the number of those places, of u with them dropped and the remaining
    values renumbered order-preservingly avoiding v."""
    codes = [(0, 0)]
    for _ in range(r):
        codes = [
            (mask << 1 | 1, rank) if t == v
            else (mask << 1, rank * (n - 1) + t - (t > v) - 1)
            for mask, rank in codes
            for t in range(1, n + 1)
        ]
    return codes


@lru_cache(maxsize=None)
def _off_tag_columns(n, r, j):
    """For each place bitmask, one byte per column of I(n,r): 1 where the
    places of value j in the column differ from the bitmask."""
    col_masks = [mask for mask, _ in _split_ranks(n, r, j)]
    return tuple(bytes([c != mask for c in col_masks]) for mask in range(1 << r))


def is_special(a, i, j):
    """True when every nonzero entry matches the places of value i in its
    row with the places of value j in its column."""
    size, data = a.size, a.data
    off = _off_tag_columns(a.n, a.r, j)
    for ri, (mask, _) in enumerate(_split_ranks(a.n, a.r, i)):
        if any(compress(data[ri * size : (ri + 1) * size], off[mask])):
            return False
    return True


def zero_rowcol_implies_special(a, i, j):
    """Check the zero block row/column hypothesis and, when it holds,
    assert that the matrix is special with tag (i, j).

    Returns True when the hypothesis held (all blocks except A^i_j in block
    row i and block column j vanish).
    """
    n = a.n
    hypothesis = True
    for q in range(1, n + 1):
        if q != j and not block(a, i, q).is_zero():
            hypothesis = False
    for p in range(1, n + 1):
        if p != i and not block(a, p, j).is_zero():
            hypothesis = False
    if hypothesis and not is_special(a, i, j):
        raise NotInvariantError("zero row/column hypothesis held but matrix is not special")
    return hypothesis


def eta(a, p, q):
    """Excise rows containing p and columns containing q, renumbering the
    surviving values order-preservingly onto {1..n-1}."""
    n, r = a.n, a.r
    rows = ix.map_ranks([ix.embed_avoiding(t, p) for t in range(1, n)], n, r)
    cols = ix.map_ranks([ix.embed_avoiding(t, q) for t in range(1, n)], n, r)
    return gather(a, n - 1, rows, cols)


@lru_cache(maxsize=64)
def _theta_rows(n, r, p, q, tau=None, transpose=False):
    """Gather tables of the inflation with tag (p, q) into I(n,r), carried
    by ``tau`` and ``transpose`` as in :func:`theta`.

    One entry per output row u, in lexicographic order: ``(k, window,
    columns)``.  The row of u is read from ``[zero] +
    rho^k(c).data[window]``, the row (transposed: the column) of u-bar in
    the k-th restriction, and ``columns[v]`` is 1 + the rank of v-bar when
    the places of the column value in v are the places of the row value in
    u, else 0 (the leading zero).  Column tables are shared between rows
    with the same place mask; relabelled, row u reads the codes of
    tau^-1 u and column v those of tau^-1 v.
    """
    row_codes = _split_ranks(n, r, q if transpose else p)
    col_codes = _split_ranks(n, r, p if transpose else q)
    if tau is not None:
        moved = ix.act_ranks(ix.perm_inverse(tau), r)
        row_codes = [row_codes[k] for k in moved]
        col_codes = [col_codes[k] for k in moved]
    n1 = n - 1
    columns = {}
    rows = []
    for mask, u_bar in row_codes:
        if mask not in columns:
            columns[mask] = tuple(
                v_bar + 1 if v_mask == mask else 0 for v_mask, v_bar in col_codes
            )
        k = mask.bit_count()
        width = n1 ** (r - k)
        start = u_bar if transpose else u_bar * width
        window = slice(start, None, width) if transpose else slice(start, start + width)
        rows.append((k, window, columns[mask]))
    return tuple(rows)


def theta(c, p, q, tau=None, transpose=False):
    """Inflate an invariant of rank n-1 to a special invariant with tag
    (p, q) at rank n.

    The entry at (u, v) vanishes unless the places of p in u equal the
    places of q in v; stripping those k common places leaves a pair of
    indices over the remaining values, looked up in the restriction tower
    rho^k(c) after renumbering.

    With ``tau``, a permutation of 1..n, its entry at (u, v) moves to
    (tau.u, tau.v), and with ``transpose`` it is then transposed, as
    :class:`.patterns.Basis` carries a decomposition summand to another
    block row or column; each row is still one gather, a transposed one
    reading a column of rho^k(c), one strided slice.
    """
    n1, r, ring = c.n, c.r, c.ring
    towers = [c]
    for _ in range(r):
        towers.append(_restrict(towers[-1]))
    zero = [ring.zero]
    data = []
    for k, window, columns in _theta_rows(n1 + 1, r, p, q, tau, transpose):
        window = zero + towers[k].data[window]
        data.extend(map(window.__getitem__, columns))
    return TensorMatrix(n1 + 1, r, ring, data)
