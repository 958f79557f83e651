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
``base`` is the rank with value 1 inserted; the n rows of an (alpha, p, q)
slice minor are therefore strided runs of ``data``.  The G check, the
restriction's common slice sums, and the excision, inflation and
specialness maps all work on such precomputed rank tables instead of
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import indices as ix
from .tensor import TensorMatrix, gather, matmul, matrix_sum


class NotInvariantError(ValueError):
    pass


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


def _vt_ids(n, r):
    ids = {}
    out = []
    for idx in ix.all_indices(n, r):
        vt = ix.value_type(idx)
        out.append(ids.setdefault(vt, len(ids)))
    return out


def check_membership(a, stop_early=False):
    """Evaluate the three centraliser predicates on a matrix.

    The first failing witness (if any) is recorded: for G the first
    (alpha, p, q), in that order, whose slice sums disagree, for H the
    nonzero entry at a value-type mismatch, for S the orbit with two
    different values.  G is evaluated at every place alpha.
    """
    n, r, ring = a.n, a.r, a.ring
    report = MembershipReport(True, True, True)
    idxs = ix.all_indices(n, r)
    size = a.size
    vt = _vt_ids(n, r)

    # H: value-type preservation
    zero = ring.zero
    for ri in range(size):
        row = a.data[ri * size : (ri + 1) * size]
        vti = vt[ri]
        for rj in range(size):
            if vt[rj] != vti and row[rj] != zero:
                report.in_H = False
                if report.first_violation is None:
                    report.first_violation = {
                        "kind": "H",
                        "row": ix.format_index(idxs[ri]),
                        "col": ix.format_index(idxs[rj]),
                    }
                if stop_early:
                    return report
                break
        if not report.in_H:
            break

    # S: constancy on simultaneous place-permutation orbits
    orbit_of, reps = ix.omega_orbits(n, r)
    values = [None] * len(reps)
    for ri in range(size):
        base = ri * size
        for rj in range(size):
            oid = orbit_of[base + rj]
            v = a.data[base + rj]
            if values[oid] is None:
                values[oid] = v
            elif values[oid] != v:
                report.in_S = False
                if report.first_violation is None:
                    report.first_violation = {
                        "kind": "S",
                        "row": ix.format_index(idxs[ri]),
                        "col": ix.format_index(idxs[rj]),
                    }
                if stop_early:
                    return report
                break
        if not report.in_S:
            break

    # G: all slice sums for a context pair agree, at every place
    for alpha in range(1, r + 1):
        bases = _context_bases(n, r, alpha)
        for pi, bp in enumerate(bases):
            for qi, bq in enumerate(bases):
                sums = _slice_sums(a, alpha, bp, bq)
                if sums.count(sums[0]) != len(sums):
                    report.in_G = False
                    if report.first_violation is None:
                        report.first_violation = {
                            "kind": "G",
                            "alpha": alpha,
                            "p": ix.format_index(ix.index_from_rank(n, r - 1, pi)),
                            "q": ix.format_index(ix.index_from_rank(n, r - 1, qi)),
                        }
                    return report
    return report


def is_invariant(a):
    return check_membership(a, stop_early=True).in_E


# ---------------------------------------------------------------------------
# Slices, restriction, blocks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _context_bases(n, r, alpha):
    """Rank in I(n,r) of each context p of I(n,r-1), in lexicographic order,
    with the value 1 inserted at place alpha."""
    stride = n ** (r - alpha)
    return tuple(
        head * stride * n + tail
        for head in range(n ** (alpha - 1))
        for tail in range(stride)
    )


def _slice_sums(a, alpha, bp, bq):
    """The n row sums, then the n column sums, of the (alpha, p, q) minor.

    ``bp`` and ``bq`` are the context ranks from :func:`_context_bases`;
    the minor's rows are strided runs of ``a.data`` and its columns are
    read across them.
    """
    n, size, data = a.n, a.size, a.data
    stride = n ** (a.r - alpha)
    step = stride * size
    start = bp * size + bq
    span = n * stride
    rows = [data[k : k + span : stride] for k in range(start, start + n * step, step)]
    total = a.ring.sum
    sums = list(map(total, rows))
    sums.extend(map(total, zip(*rows)))
    return sums


def common_b(a, p, q):
    """The shared slice-sum value b^p_q of an invariant.

    All 2n slice sums attached to the contexts (p, q) at the last place are
    computed and compared; disagreement raises ``NotInvariantError``.
    """
    n, alpha = a.n, a.r
    sums = _slice_sums(a, alpha, ix.index_rank(n, p) * n, ix.index_rank(n, q) * n)
    if sums.count(sums[0]) != len(sums):
        raise NotInvariantError(
            "slice sums disagree at alpha=%d p=%s q=%s"
            % (alpha, ix.format_index(p), ix.format_index(q))
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


def restrict(a, validate=True):
    """The restriction: the matrix of common slice sums, one degree lower.

    Computed as a block row sum; when ``validate`` is set, a second block
    row and a block column are summed independently and compared, so a
    non-invariant input is rejected instead of silently restricted.
    """
    n, r = a.n, a.r
    if r < 1:
        raise ValueError("cannot restrict a degree-zero matrix")
    out = matrix_sum([block(a, 1, j) for j in range(1, n + 1)])
    if validate:
        second = matrix_sum([block(a, n, j) for j in range(1, n + 1)])
        colsum = matrix_sum([block(a, i, 1) for i in range(1, n + 1)])
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


def is_special(a, i, j):
    """True when every nonzero entry matches the places of value i in its
    row with the places of value j in its column."""
    zero = a.ring.zero
    size, data = a.size, a.data
    col_masks = [mask for mask, _ in _split_ranks(a.n, a.r, j)]
    for ri, (mask, _) in enumerate(_split_ranks(a.n, a.r, i)):
        row = data[ri * size : (ri + 1) * size]
        for value, col_mask in zip(row, col_masks):
            if col_mask != mask and value != zero:
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
