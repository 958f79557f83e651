"""Tuple-level reference versions of the rank-table kernels.

Each function here walks multi-indices as tuples, the way the package did
before its construction path moved onto flat rank tables, and is kept as
an independent oracle for the differential tests: nothing in this file
calls a rank table of swdual but :func:`span_rows`, the live-orbit rows
that the span side ranked before it read tower coordinates, kept as they
were as the oracle of the tower rows; :func:`decompose_by_relabel`,
the path ``decompose`` took to another block row or column before its
summands were inflated straight into the basis: the last-row summands of
the relabelled input, each relabelled back; and
:func:`tower_system_dict_rows`, the tower system as it was built on the
package's own live orbits and F(n, k) reads before its rows became
tuples read off slices.  The duality oracles' rows are kept
the same way: psi rows by scanning every entry of the full psi matrices
or by testing every class against every diagram, the psi side's rank by
eliminating the rows of every diagram, slice equations at
every place or at every context of the last place, with every difference
of each minor, span rows by testing w.j == i on the orbit
representatives, the orbit table with its former keys, sums of
(r + 1)^code, live orbits by comparing value
types and places of values on them, and the half-commutant equations at
every pair (a, b) instead of one per orbit.  The diagrams are walked as
nested set partitions instead of restricted-growth words, and psi is read
off its definition entry by entry.  Gibson's G(r, c) is found by a
backtracking search over its support instead of its closed form.  The
index helpers below (the place action, composition, the collapsing
renumbering and the places of a value) and the cofactor determinant live
here because only tests use them.

So do the Halverson-Ram oracles of the representation laws: the generator
diagrams, the stacking product with its symbolic delta powers, the
Kronecker product and commutation of dense matrices.  Operator order
convention: with ``psi(d)`` the matrix whose (i, j) entry is the diagram
scalar of d (row = top row assignment, column = bottom row assignment),
diagram multiplication ``multiply(d1, d2) = ScaledDiagram(k, d3)``
matches

    matmul(psi(d1), psi(d2)) == n^k * psi(d3).

This is the fixed matrix-order reading of the opposite-algebra
representation, and it is pinned by the representation-law tests.
"""

import itertools
from dataclasses import dataclass

from swdual import diagrams as dg
from swdual import extension as ex
from swdual import gibson as gb
from swdual import indices as ix
from swdual import invariants as iv
from swdual import patterns as pt
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import sparse_rank
from swdual.tensor import TensorMatrix


def act_right(idx, sigma):
    """Place permutation: the value at place a moves to place sigma(a)."""
    out = [0] * len(idx)
    for a, v in enumerate(idx):
        out[sigma[a] - 1] = v
    return tuple(out)


def perm_compose(p, q):
    """Composite x -> p(q(x))."""
    return tuple(p[q[x - 1] - 1] for x in range(1, len(p) + 1))


def places_of(idx, v):
    """The set of places where value v appears (Lambda_v)."""
    return frozenset(p for p, x in enumerate(idx, start=1) if x == v)


def collapse_avoiding(v, skip):
    """Inverse of ``indices.embed_avoiding``; v must differ from ``skip``."""
    if v == skip:
        raise ValueError("value %d is excised" % v)
    return v if v < skip else v - 1


def collapse_index(idx, skip):
    return tuple(collapse_avoiding(v, skip) for v in idx)


def determinant(ring, rows):
    """Exact determinant by cofactor expansion, for small sizes."""
    m = len(rows)
    if m == 0:
        return ring.one
    if m == 1:
        return rows[0][0]
    out = ring.zero
    for j in range(m):
        if rows[0][j] == ring.zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = ring.mul(rows[0][j], determinant(ring, minor))
        out = ring.add(out, ring.neg(term) if j % 2 else term)
    return out


def total(ring, values):
    """Left fold with ring addition (independent of ``Ring.sum``)."""
    acc = ring.zero
    for v in values:
        acc = ring.add(acc, v)
    return acc


def get(a, i, j):
    return a.data[ix.index_rank(a.n, i) * a.size + ix.index_rank(a.n, j)]


def column(a, j):
    return [get(a, i, j) for i in ix.all_indices(a.n, a.r)]


def phi(w, n, r, ring):
    """The r-th Kronecker power of P(w): a one at (w.j, j) for every j."""
    m = TensorMatrix(n, r, ring)
    for j in ix.all_indices(n, r):
        m.data[ix.index_rank(n, ix.act_left(w, j)) * m.size + ix.index_rank(n, j)] = ring.one
    return m


def matmul(a, b):
    size, ring = a.size, a.ring
    data = []
    for i in range(size):
        for j in range(size):
            data.append(total(ring, (
                ring.mul(a.data[i * size + k], b.data[k * size + j]) for k in range(size)
            )))
    return TensorMatrix(a.n, a.r, ring, data)


def conjugate(a, w):
    """phi(w) a phi(w)^-1 by two matrix products."""
    n, r, ring = a.n, a.r, a.ring
    return matmul(phi(w, n, r, ring), matmul(a, phi(ix.perm_inverse(w), n, r, ring)))


def reconstruct(n, r, ring, coeffs):
    """Sum of x_w phi(w) for a coefficient map, as full matrices."""
    data = [ring.zero] * (n ** (2 * r))
    for w, x in coeffs.items():
        m = phi(w, n, r, ring)
        data = [ring.add(t, ring.mul(x, y)) for t, y in zip(data, m.data)]
    return TensorMatrix(n, r, ring, data)


def restrict(a):
    """Sum of the first block row, entry by entry."""
    n, r, ring = a.n, a.r, a.ring
    out = TensorMatrix(n, r - 1, ring)
    for p in ix.all_indices(n, r - 1):
        for q in ix.all_indices(n, r - 1):
            value = total(ring, (get(a, (1,) + p, (j,) + q) for j in range(1, n + 1)))
            out.data[ix.index_rank(n, p) * out.size + ix.index_rank(n, q)] = value
    return out


def tower(a):
    """The tower coordinates of an invariant by the restriction chain: the
    one entry of rho^r(a), then rho^(r-k)(a) on F(n, k) for k = 1..r, each
    restriction built whole and read entry by entry."""
    levels = [a]
    for _ in range(a.r):
        levels.append(restrict(levels[-1]))
    xs = list(levels[-1].data)
    for k in range(1, min(a.r, a.n - 1) + 1):
        xs.extend(get(levels[a.r - k], u, v) for u, v in pt.build_f(a.n, k).entries)
    return xs


def is_special(a, i, j):
    idxs = ix.all_indices(a.n, a.r)
    for u in idxs:
        for v in idxs:
            if get(a, u, v) != a.ring.zero and places_of(u, i) != places_of(v, j):
                return False
    return True


def eta(a, p, q):
    n, r = a.n, a.r
    out = TensorMatrix(n - 1, r, a.ring)
    for bi, u in enumerate(ix.all_indices(n - 1, r)):
        for bj, v in enumerate(ix.all_indices(n - 1, r)):
            out.data[bi * out.size + bj] = get(a, ix.embed_index(u, p), ix.embed_index(v, q))
    return out


def theta(c, p, q):
    n1, r, ring = c.n, c.r, c.ring
    n = n1 + 1
    towers = [c]
    for _ in range(r):
        towers.append(restrict(towers[-1]))
    out = TensorMatrix(n, r, ring)
    idxs = ix.all_indices(n, r)
    for ri, u in enumerate(idxs):
        lam_p = places_of(u, p)
        u_bar = collapse_index(tuple(x for x in u if x != p), p)
        for rj, v in enumerate(idxs):
            if places_of(v, q) != lam_p:
                continue
            v_bar = collapse_index(tuple(x for x in v if x != q), q)
            out.data[ri * out.size + rj] = get(towers[len(lam_p)], u_bar, v_bar)
    return out


def decompose_by_relabel(a, f, basis):
    """The summands of ``decompose(a, f, basis)`` by relabelling: decompose
    ``a`` carried to the last block row, then carry the summand of block
    column tau(k) back to the basis as its k-th summand."""
    based = pt.parse_basis(basis, a.n)
    parts = ex.decompose(based.matrix(a), {based.key(key): v for key, v in f.items()})
    return [based.matrix(parts[based.value(k) - 1]) for k in range(1, a.n + 1)]


def _insert(ctx, alpha, t):
    return ctx[: alpha - 1] + (t,) + ctx[alpha - 1 :]


def membership(a):
    """(in_G, in_H, in_S, witnesses).

    The witnesses, each None when its predicate holds: "H" the first pair
    (u, v) in row-major order with a nonzero entry at a value-type
    mismatch, "S" the first pair whose entry differs from the entry at the
    least pair (u.s, v.s) of its place-permutation orbit, and "G" the first
    slice (alpha, p, q) whose 2n sums disagree.
    """
    n, r, ring = a.n, a.r, a.ring
    idxs = ix.all_indices(n, r)
    pairs = [(u, v) for u in idxs for v in idxs]
    first_h = next(
        ((u, v) for u, v in pairs
         if ix.value_type(u) != ix.value_type(v) and get(a, u, v) != ring.zero),
        None,
    )
    sigmas = list(itertools.permutations(range(1, r + 1)))
    first_s = next(
        ((u, v) for u, v in pairs
         if get(a, u, v) != get(a, *min((act_right(u, s), act_right(v, s))
                                        for s in sigmas))),
        None,
    )
    first_g = None
    for alpha in range(1, r + 1):
        lower = ix.all_indices(n, r - 1)
        for p in lower:
            for q in lower:
                sums = [
                    total(ring, (get(a, _insert(p, alpha, i), _insert(q, alpha, j))
                                 for j in range(1, n + 1)))
                    for i in range(1, n + 1)
                ] + [
                    total(ring, (get(a, _insert(p, alpha, i), _insert(q, alpha, j))
                                 for i in range(1, n + 1)))
                    for j in range(1, n + 1)
                ]
                if first_g is None and len(set(sums)) > 1:
                    first_g = (alpha, p, q)
    witnesses = {"H": first_h, "S": first_s, "G": first_g}
    return first_g is None, first_h is None, first_s is None, witnesses


def slice_equations_all_places(n, r, orbit_of, live):
    """Sorted, deduplicated slice-sum difference equations over live orbit
    variables, built at every place by inserting into the contexts."""
    size = n**r
    rows = set()
    lower = ix.all_indices(n, r - 1)

    def vector(entries):
        vec = {}
        for u, v in entries:
            var = live.get(orbit_of[ix.index_rank(n, u) * size + ix.index_rank(n, v)])
            if var is not None:
                vec[var] = vec.get(var, 0) + 1
        return vec

    for alpha in range(1, r + 1):
        for p in lower:
            for q in lower:
                cells = [[(_insert(p, alpha, i), _insert(q, alpha, j))
                          for j in range(1, n + 1)] for i in range(1, n + 1)]
                sums = [vector(col) for col in zip(*cells)] + [vector(row) for row in cells]
                for vec in sums[1:]:
                    diff = dict(sums[0])
                    for var, c in vec.items():
                        diff[var] = diff.get(var, 0) - c
                    diff = {var: c for var, c in diff.items() if c}
                    if diff:
                        rows.add(tuple(sorted(diff.items())))
    return [dict(row) for row in sorted(rows)]


def wn_orbit_classes(n, r):
    """Class of every pair of ranks under the diagonal W_n action, labelled
    by the first-appearance pattern of values along i + j, in first-seen
    order."""
    classes = {}
    class_of = []
    for i in ix.all_indices(n, r):
        for j in ix.all_indices(n, r):
            relabel = {}
            for v in i + j:
                relabel.setdefault(v, len(relabel) + 1)
            key = tuple(relabel[v] for v in i + j)
            class_of.append(classes.setdefault(key, len(classes)))
    return class_of


def set_partitions(elements):
    """All set partitions of ``elements`` in restricted-growth-string order,
    each a tuple of blocks, by growing the blocks one element at a time."""
    elements = list(elements)
    m = len(elements)
    if m == 0:
        return [()]
    out = []

    def grow(pos, blocks):
        if pos == m:
            out.append(tuple(tuple(b) for b in blocks))
            return
        x = elements[pos]
        for b in blocks:
            b.append(x)
            grow(pos + 1, blocks)
            b.pop()
        blocks.append([x])
        grow(pos + 1, blocks)
        blocks.pop()

    grow(1, [[elements[0]]])
    return out


def psi_support(d, n, fixed_last=False):
    """Whether each entry of psi(d) is 1, in row-major order: entry (i, j)
    is 1 when the word i + j, vertex v reading letter v, is constant on
    every block of d.  With ``fixed_last`` the entries are those of the
    restriction of psi(d) to the subspace with last tensor factor v_n,
    indexed by I(n, d.r - 1), and the word is i.n + j.n; half-algebra
    diagrams fix that subspace setwise."""
    r = d.r - 1 if fixed_last else d.r
    cap = (n,) if fixed_last else ()
    links = [(v, block[0]) for block in d.blocks for v in block[1:]]
    return [
        all(word[u] == word[v] for u, v in links)
        for word in (i + cap + j + cap
                     for i in ix.all_indices(n, r) for j in ix.all_indices(n, r))
    ]


def half_commutant_rows_all_pairs(n, r, ring):
    """Sorted, deduplicated equations for X on orbit variables commuting
    with every restricted half diagram, at every pair (a, b) of ranks."""
    orbit_of, _ = ix.omega_orbits(n, r)
    size = n**r
    rows = set()
    half = [d for d in dg.enumerate_diagrams(r + 1) if dg.is_half_algebra_member(d)]
    for d in half:
        cols_by_row, rows_by_col = [[] for _ in range(size)], [[] for _ in range(size)]
        for k, hit in enumerate(psi_support(d, n, fixed_last=True)):
            if hit:
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
    return [dict(row) for row in sorted(rows)]


def psi_rows_dense(n, r, ring):
    """The classes hit by each full psi matrix, by scanning all of its
    entries, one row per diagram."""
    class_of = wn_orbit_classes(n, r)
    rows = []
    for d in dg.enumerate_diagrams(r):
        m = tn.psi(d, n, ring)
        rows.append({class_of[pos]: 1 for pos, v in enumerate(m.data) if v != ring.zero})
    return rows


def psi_rows_filter(r, words):
    """The classes ``words`` on which each diagram's word is constant on
    every block, by testing every class against every diagram."""
    rows = []
    for d in dg.enumerate_diagrams(r):
        links = [(v, block[0]) for block in d.blocks for v in block[1:]]
        rows.append({
            c: 1 for c, word in enumerate(words)
            if all(word[u] == word[v] for u, v in links)
        })
    return rows


def psi_rank_by_elimination(n, r, ring):
    """The rank of the psi rows of all B(2r) diagrams on the W_n classes,
    by elimination, the way the psi side was ranked before it checked the
    orbit-basis square of the diagrams with at most n blocks."""
    words = dg.restricted_growth_words(2 * r, n)
    return sparse_rank(ring, list(vf._psi_rows(n, r, words, dg.restricted_growth_words(2 * r, 2 * r))))


def slice_equations_all_contexts(n, r, orbit_of, live):
    """Sorted, deduplicated slice-sum difference equations at the last
    place, walking every context (p, q) of I(n,r-1) x I(n,r-1)."""
    size = n**r
    rows = set()
    lower = n ** (r - 1)
    for p in range(lower):
        for q in range(lower):
            cells = [[live.get(orbit_of[(p * n + i) * size + q * n + j]) for j in range(n)]
                     for i in range(n)]
            sums = []
            for line in list(zip(*cells)) + cells:
                vec = {}
                for var in line:
                    if var is not None:
                        vec[var] = vec.get(var, 0) + 1
                sums.append(vec)
            for vec in sums[1:]:
                diff = dict(sums[0])
                for var, c in vec.items():
                    diff[var] = diff.get(var, 0) - c
                diff = {var: c for var, c in diff.items() if c}
                if diff:
                    rows.add(tuple(sorted(diff.items())))
    return [dict(row) for row in sorted(rows)]


def tower_system_dict_rows(n, r):
    """:func:`swdual.verify._tower_system` as it was before its rows became
    ``(plus, minus)`` tuples read off slices: each row a dict of +-1
    coefficients, its line's entries at 1 and its context's variable one
    degree down at -1, built in order of first appearance by looking up
    every entry of each minor; and the seeds as a list."""
    tables = [vf._live_orbits(n, k) for k in range(r + 1)]
    starts = list(itertools.accumulate((len(live) for _, _, live in tables), initial=0))
    rows = {}
    for k in range(1, r + 1):
        orbit_of, _, live = tables[k]
        size, lower = n**k, n ** (k - 1)
        below = tables[k - 1][2]
        for context, lead in enumerate(ix.orbit_table(n, k - 1)[1] if n > 1 else [0]):
            p, q = divmod(lead, lower)
            minor = [[live.get(orbit_of[i * size + j]) for j in range(q * n, q * n + n)]
                     for i in range(p * n, p * n + n)]
            var = below.get(context)
            for line in [*zip(*minor), *minor]:
                row = {} if var is None else {starts[k - 1] + var: -1}
                for entry in line:
                    if entry is not None:
                        row[starts[k] + entry] = row.get(starts[k] + entry, 0) + 1
                if row:
                    rows.setdefault(frozenset(row.items()), row)
    seeds = [0]
    for k, _, _, at in vf._tower_reads(n, r):
        orbit_of, _, live = tables[k]
        seeds += (starts[k] + live[orbit_of[p]] if orbit_of[p] in live else None for p in at)
    return list(rows.values()), seeds, starts[-1]


def span_rows(n, r, perms, orbit_of, live):
    """The row of phi(w) on the live orbit variables for each w: its
    nonzero entries sit at the ranks (w.j, j), and w.j has the value type
    of j, so every such orbit is live."""
    size = n**r
    rows = []
    for w in perms:
        act = ix.act_ranks(w, r)
        rows.append({live[orbit_of[act[j] * size + j]]: 1 for j in range(size)})
    return rows


def span_rows_act_left(n, r, perms, reps, live):
    """The live orbits (i, j) with w.j == i for each w, read off the orbit
    representatives."""
    rows = []
    for w in perms:
        rows.append({var: 1 for oid, var in live.items()
                     if ix.act_left(w, reps[oid][1]) == reps[oid][0]})
    return rows


def live_orbits(reps, special_tag=None):
    """The orbits whose representative pair (i, j) has equal value types,
    numbered in orbit order; with a tag (p, q), only those where p sits at
    the same places of i as q of j."""
    live = {}
    for oid, (i, j) in enumerate(reps):
        if ix.value_type(i) != ix.value_type(j):
            continue
        if special_tag is not None:
            p, q = special_tag
            if places_of(i, p) != places_of(j, q):
                continue
        live[oid] = len(live)
    return live


def lead_pairs(n, r, leads):
    """The (row, column) multi-index pair at each entry position of
    ``leads``, as :func:`swdual.indices.omega_orbits` returns them: the
    orbit representatives of :func:`omega_orbits`."""
    size = n**r
    return [(ix.index_from_rank(n, r, p // size), ix.index_from_rank(n, r, p % size))
            for p in leads]


def omega_orbits(n, r):
    """(orbit_of, reps) by walking all r! place permutations from each
    pair not yet seen, in row-major order."""
    indices = ix.all_indices(n, r)
    sigmas = list(itertools.permutations(range(1, r + 1)))
    size = len(indices)
    orbit_of = [-1] * (size * size)
    reps = []
    for ri, i in enumerate(indices):
        for rj, j in enumerate(indices):
            if orbit_of[ri * size + rj] >= 0:
                continue
            for sigma in sigmas:
                a = ix.index_rank(n, act_right(i, sigma))
                b = ix.index_rank(n, act_right(j, sigma))
                orbit_of[a * size + b] = len(reps)
            reps.append((i, j))
    return orbit_of, reps


def orbit_table_base_keys(n, r):
    """:func:`swdual.indices.orbit_table` keyed at every cell as it was
    before its keys could pack power sums, entry by entry: the key of a
    multiset of codes c = (i - 1) n + j - 1 is the sum of (r + 1)^c, an
    integer of up to n^2 log2(r + 1) bits."""
    keys = [0]
    for degree in range(r):
        lower, width = keys, n**degree
        keys = [lower[row * width + col] + (r + 1) ** ((t - 1) * n + s - 1)
                for row in range(width) for t in range(1, n + 1)
                for col in range(width) for s in range(1, n + 1)]
    ids, orbit_of, leads = {}, [], []
    for pos, key in enumerate(keys):
        if key not in ids:
            ids[key] = len(leads)
            leads.append(pos)
        orbit_of.append(ids[key])
    return orbit_of, leads


def initialise(b):
    """The entries of degree b.r + 1 pinned by b, pair by pair: zero at a
    value-type mismatch, else b at the pair with the first repeating place
    of the row dropped; None when both indices are injective."""
    n, r = b.n, b.r + 1
    idxs = ix.all_indices(n, r)
    vts = [ix.value_type(i) for i in idxs]
    data = []
    for i, vti in zip(idxs, vts):
        dup, seen = None, set()
        for place, v in enumerate(i, start=1):
            if v in seen:
                dup = place
                break
            seen.add(v)
        for j, vtj in zip(idxs, vts):
            if vti != vtj:
                data.append(b.ring.zero)
            elif dup is None:
                data.append(None)
            else:
                data.append(get(b, ix.drop_place(i, dup), ix.drop_place(j, dup)))
    return data


def gibson_g_by_search(n, r, c):
    """Every permutation with column c at r and each other column j at j or
    j - 1 mod n, row r excepted, by backtracking; the caller checks that
    there is exactly one."""
    solutions = []

    def search(j, used, images):
        if j > n:
            solutions.append(tuple(images))
            return
        if j == c:
            candidates = [r]
        else:
            candidates = [t for t in (j, (j - 2) % n + 1) if t != r]
        for img in candidates:
            if img not in used:
                used.add(img)
                images.append(img)
                search(j + 1, used, images)
                images.pop()
                used.remove(img)

    search(1, set(), [])
    return solutions


# ---------------------------------------------------------------------------
# Dense matrix helpers


def scale(a, value):
    """value times every entry of ``a``."""
    mul = a.ring.mul
    return TensorMatrix(a.n, a.r, a.ring, [mul(value, x) for x in a.data])


def kronecker(a, b):
    """Kronecker product; the tensor degrees add."""
    if a.ring != b.ring or a.n != b.n:
        raise ValueError("ring or rank mismatch")
    ring = a.ring
    out = TensorMatrix(a.n, a.r + b.r, ring)
    sa, sb, size = a.size, b.size, out.size
    for i1, i2, j1, j2 in itertools.product(range(sa), range(sb), range(sa), range(sb)):
        out.data[(i1 * sb + i2) * size + j1 * sb + j2] = ring.mul(
            a.data[i1 * sa + j1], b.data[i2 * sb + j2])
    return out


def commutes(a, b):
    """Whether ab = ba, by the package's product: the entry-by-entry
    :func:`matmul` is too slow for the exhaustive commutation tests."""
    return tn.matmul(a, b) == tn.matmul(b, a)


def common_b(a, p, q):
    """The shared value b^p_q of the 2n slice sums of an invariant at the
    last place and the contexts (p, q); NotInvariantError where two of
    them differ."""
    n, ring = a.n, a.ring
    cells = [[get(a, p + (i,), q + (j,)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    sums = {total(ring, line) for line in cells + [list(col) for col in zip(*cells)]}
    if len(sums) != 1:
        raise iv.NotInvariantError("slice sums disagree at p=%s q=%s" % (p, q))
    return sums.pop()


# ---------------------------------------------------------------------------
# Diagram generators and the stacking product


@dataclass(frozen=True)
class ScaledDiagram:
    """delta^k times a diagram, with the exponent k kept symbolic."""

    exponent: int
    diagram: dg.Diagram


def parse_diagram(text):
    """Round-trip inverse of ``Diagram.format``; the rank is inferred."""
    raw_blocks = []
    for part in text.strip().split("|"):
        part = part.strip()
        if not (part.startswith("{") and part.endswith("}")):
            raise ValueError("malformed block %r" % part)
        raw_blocks.append([e.strip() for e in part[1:-1].split(",") if e.strip()])
    count = sum(map(len, raw_blocks))
    if count % 2 != 0:
        raise ValueError("diagram must have an even vertex count")
    r = count // 2
    return dg.Diagram(r, [
        [r + int(e[:-1]) - 1 if e.endswith("'") else int(e) - 1 for e in entries]
        for entries in raw_blocks
    ])


def identity_diagram(r):
    return dg.Diagram(r, [(a, r + a) for a in range(r)])


def generator_p(r, alpha):
    """Singletons {alpha}, {alpha'}; vertical strands elsewhere."""
    if not 1 <= alpha <= r:
        raise ValueError("alpha out of range")
    blocks = [(alpha - 1,), (r + alpha - 1,)]
    blocks += [(a, r + a) for a in range(r) if a != alpha - 1]
    return dg.Diagram(r, blocks)


def generator_pp(r, alpha, beta):
    """One block {alpha, beta, alpha', beta'}; vertical strands elsewhere."""
    if not 1 <= alpha < beta <= r:
        raise ValueError("need 1 <= alpha < beta <= r")
    a, b = alpha - 1, beta - 1
    blocks = [(a, b, r + a, r + b)]
    blocks += [(c, r + c) for c in range(r) if c not in (a, b)]
    return dg.Diagram(r, blocks)


def generator_s(r, alpha, beta):
    """The transposition crossing: {alpha, beta'}, {beta, alpha'}."""
    if not 1 <= alpha < beta <= r:
        raise ValueError("need 1 <= alpha < beta <= r")
    a, b = alpha - 1, beta - 1
    blocks = [(a, r + b), (b, r + a)]
    blocks += [(c, r + c) for c in range(r) if c not in (a, b)]
    return dg.Diagram(r, blocks)


def permutation_diagram(w):
    """Diagram of a place permutation: top a joined to bottom w(a)'."""
    r = len(w)
    return dg.Diagram(r, [(a, r + w[a] - 1) for a in range(r)])


def multiply(d1, d2):
    """Stack d1 above d2 and remove interior components.

    Vertex space of the stack: outer top 0..r-1, middle r..2r-1 (d1's bottom
    row identified with d2's top row), outer bottom 2r..3r-1.  Returns
    ``ScaledDiagram(k, d3)`` where k counts the removed middle-only
    components.
    """
    if d1.r != d2.r:
        raise ValueError("rank mismatch")
    r = d1.r
    # d1 keeps its top row and sends bottom a' to middle r+a; d2 sends top
    # a to middle r+a and bottom a' to 2r+a
    parent = list(range(3 * r))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for shift, d in ((0, d1), (r, d2)):
        for block in d.blocks:
            for v in block[1:]:
                parent[find(v + shift)] = find(block[0] + shift)
    components = {}
    for v in range(3 * r):
        components.setdefault(find(v), []).append(v)
    k = 0
    blocks = []
    for comp in components.values():
        outer = [v if v < r else v - r for v in comp if v < r or v >= 2 * r]
        if outer:
            blocks.append(outer)
        else:
            k += 1
    return ScaledDiagram(k, dg.Diagram(r, blocks))


def psi_scaled(sd, n, ring):
    """psi of a ScaledDiagram: delta^k becomes from_int(n)^k."""
    coeff = ring.one
    for _ in range(sd.exponent):
        coeff = ring.mul(coeff, ring.from_int(n))
    return scale(tn.psi(sd.diagram, n, ring), coeff)


# ---------------------------------------------------------------------------
# Cross-checks of two library derivations


def kernel_of_rho_dimension(n, r, ring):
    """dim ker(rho) over a field, computed two independent ways.

    The rank oracle gives dim E(n,r) - dim E(n,r-1); the free-pattern size
    must match exactly, else an error flags a bug.
    """
    if not ring.is_field():
        raise ValueError("kernel dimension requires a field")
    by_rank = vf.centraliser_dimension(n, r, ring) - vf.centraliser_dimension(n, r - 1, ring)
    by_pattern = len(pt.build_f(n, r))
    if by_rank != by_pattern:
        raise ex.ConstructionFailure(
            "kernel dimension mismatch: rank oracle %d, pattern %d"
            % (by_rank, by_pattern)
        )
    return by_rank


def linear_independence_check(n, ring):
    """Rank of the vectorised Gibson basis equals its size, over a field:
    the permutation matrix of w has a one at (w(j), j) for each column j."""
    vecs = [{(w[j] - 1) * n + j: ring.one for j in range(n)} for _, w in gb.gibson_basis(n)]
    return sparse_rank(ring, vecs) == (n - 1) ** 2 + 1
