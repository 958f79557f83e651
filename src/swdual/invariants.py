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
reads a context's n rows against every q at once and also gives
:func:`common_b` its value; another place alpha is read through a table
that moves place alpha last.  The restriction sums the n column chunks of
each row of the first block row, and the excision, inflation and
specialness maps work on precomputed rank tables instead of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

from . import indices as ix
from .rings import Ring, clear_denominators
from .tensor import TensorMatrix, gather, matmul


class NotInvariantError(ValueError):
    pass


def require_positive_n(a):
    """Refuse a matrix over I(n,r) with n < 1, which has no slices."""
    if a.n < 1:
        raise ValueError("n must be positive, got %d" % a.n)


# ---------------------------------------------------------------------------
# Generalised doubly-stochastic matrices (square, raw-value rows)
# ---------------------------------------------------------------------------


def is_gds(ring, rows):
    """Common value of all row and column sums, or None if they differ."""
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("matrix must be square")
    if m == 0:
        return ring.zero
    s = ring.sum(rows[0])
    for row in rows[1:]:
        if ring.sum(row) != s:
            return None
    for j in range(m):
        if ring.sum(row[j] for row in rows) != s:
            return None
    return s


def gds_iff_commutes_with_j(ring, rows):
    """Evaluate both sides of the all-ones-matrix characterisation (n > 1)."""
    m = len(rows)
    if m <= 1:
        raise ValueError("lemma requires n > 1")
    gds = is_gds(ring, rows) is not None
    # J*M has the column sums of M constant down each column; M*J the row sums
    col_sums = [ring.sum(rows[i][j] for i in range(m)) for j in range(m)]
    row_sums = [ring.sum(rows[i]) for i in range(m)]
    jm = [[col_sums[j] for j in range(m)] for _ in range(m)]
    mj = [[row_sums[i] for _ in range(m)] for i in range(m)]
    return gds, jm == mj


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
    zeros are the only falsy values), and S compares ``data`` with its
    gather through the cached table of orbit leaders.  G runs one kernel
    at the last place (:func:`_first_bad_minor`).  When S holds, the place
    permutation moving place alpha to the end carries every entry of the
    (alpha, p, q) minor to the equal entry of the (r, p, q) minor, so the
    two minors have the same slice sums: place r decides G at every place,
    and the first failing slice is (1, p, q) for the first bad (p, q) at
    place r.  When S fails the kernel runs at every place, on the matrix
    gathered through the table that moves place alpha last.  Over Q a
    common denominator too large to clear is a ``ValueError``.
    """
    require_positive_n(a)
    if a.ring.kind == "q":  # homogeneous predicates: L * a, L a common denominator
        a = TensorMatrix(a.n, a.r, Ring.integers(), clear_denominators(a.data)[1])
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
    # place r decides every place, and the first bad slice is at place 1
    if r == 0:
        return report
    for alpha in (r,) if report.in_S else range(1, r + 1):
        table = _place_last(n, r, alpha)
        bad = _first_bad_minor(a if alpha == r else gather(a, n, table, table))
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


def _first_bad_minor(a):
    """Ranks (p, q), in that order, of the first minor at the last place
    whose 2n slice sums disagree, or None."""
    n = a.n
    for p in range(a.size // n):
        rows, cols = _context_sums(a, p)
        first = rows[0]
        if rows.count(first) == n and all(cols[t::n] == first for t in range(n)):
            continue
        for q, value in enumerate(first):
            if _minor_sums(rows, cols, q, n).count(value) != 2 * n:
                return p, q
    return None


def common_b(a, p, q):
    """The shared slice-sum value b^p_q of an invariant.

    All 2n slice sums attached to the contexts (p, q) at the last place are
    computed and compared; disagreement raises ``NotInvariantError``.
    """
    n = a.n
    rows, cols = _context_sums(a, ix.index_rank(n, p))
    sums = _minor_sums(rows, cols, ix.index_rank(n, q), n)
    if sums.count(sums[0]) != len(sums):
        raise NotInvariantError(
            "slice sums disagree at alpha=%d p=%s q=%s"
            % (a.r, ix.format_index(p), ix.format_index(q))
        )
    return sums[0]


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


def _block_sum(a, offsets):
    """Entrywise sum, one degree lower, of the blocks whose top-left
    entries sit at ``offsets`` in ``a.data``."""
    n, size, data = a.n, a.size, a.data
    width = size // n
    sums = a.ring.sums
    out = []
    for k in range(0, width * size, size):
        out.extend(sums(zip(*[data[k + o : k + o + width] for o in offsets])))
    return TensorMatrix(n, a.r - 1, a.ring, out)


def restrict(a, validate=True):
    """The restriction: the matrix of common slice sums, one degree lower.

    Computed as a block row sum, read straight from the n column chunks of
    each row of the first block row; when ``validate`` is set, the last
    block row and the first block column are summed independently and
    compared, so a non-invariant input is rejected instead of silently
    restricted.
    """
    require_positive_n(a)
    n, r = a.n, a.r
    if r < 1:
        raise ValueError("cannot restrict a degree-zero matrix")
    width = a.size // n
    down = width * a.size  # from one block row to the next
    out = _block_sum(a, [j * width for j in range(n)])
    if validate:
        second = _block_sum(a, [(n - 1) * down + j * width for j in range(n)])
        colsum = _block_sum(a, [i * down for i in range(n)])
        if second != out or colsum != out:
            raise NotInvariantError("input not invariant: block sums disagree")
    return out


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
def _theta_rows(n, r, p, q):
    """Gather tables of the inflation with tag (p, q) into I(n,r).

    One entry per row u, in lexicographic order: ``(k, start, width,
    columns)``.  The row of u is read from the window ``[zero] +
    rho^k(c).data[start : start + width]`` (the row of u-bar in the k-th
    restriction), and ``columns[v]`` is 1 + the rank of v-bar when v holds
    q at exactly the places where u holds p, else 0 (the leading zero).
    Column tables are shared between rows with the same place mask.
    """
    n1 = n - 1
    q_codes = _split_ranks(n, r, q)
    columns = {}
    rows = []
    for mask, u_bar in _split_ranks(n, r, p):
        if mask not in columns:
            columns[mask] = tuple(
                v_bar + 1 if q_mask == mask else 0 for q_mask, v_bar in q_codes
            )
        k = mask.bit_count()
        width = n1 ** (r - k)
        rows.append((k, u_bar * width, width, columns[mask]))
    return tuple(rows)


def theta(c, p, q):
    """Inflate an invariant of rank n-1 to a special invariant with tag
    (p, q) at rank n.

    The entry at (u, v) vanishes unless the places of p in u equal the
    places of q in v; stripping those k common places leaves a pair of
    indices over the remaining values, looked up in the restriction tower
    rho^k(c) after renumbering.
    """
    n1, r, ring = c.n, c.r, c.ring
    towers = [c]
    for _ in range(r):
        towers.append(restrict(towers[-1], validate=False))
    zero = [ring.zero]
    data = []
    for k, start, width, columns in _theta_rows(n1 + 1, r, p, q):
        window = zero + towers[k].data[start : start + width]
        data.extend(map(window.__getitem__, columns))
    return TensorMatrix(n1 + 1, r, ring, data)


def theta_rho_commute_check(c, p, q):
    """Verify restrict(theta(C)) == theta(restrict(C))."""
    return restrict(theta(c, p, q), validate=False) == theta(restrict(c), p, q)


# ---------------------------------------------------------------------------
# Half-algebra identification
# ---------------------------------------------------------------------------


def commutes_with_half_algebra(a, half_psi_matrices):
    """Whether a matrix on I(n,r), viewed on the v_n-fixed subspace,
    commutes with every supplied restricted diagram matrix."""
    return all(matmul(a, m) == matmul(m, a) for m in half_psi_matrices)


def half_algebra_invariants_iso(a, half_psi_matrices):
    """Both sides of the half-algebra identification for one matrix.

    Returns ``(commutes, special)`` where ``commutes`` says the matrix
    centralises the restricted half-algebra action and ``special`` says the
    re-indexed matrix is an invariant that fixes the value n on both sides.
    The two must agree for every matrix.
    """
    comm = commutes_with_half_algebra(a, half_psi_matrices)
    special = is_invariant(a) and is_special(a, a.n, a.n)
    return comm, special
