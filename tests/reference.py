"""Tuple-level reference versions of the rank-table kernels.

Each function here walks multi-indices as tuples, the way the package did
before its construction path moved onto flat rank tables, and is kept as
an independent oracle for the differential tests: nothing in this file
calls a rank table of swdual.  The duality oracles' rows are kept the same
way: psi rows by scanning every entry of the full psi matrices or by
testing every class against every diagram, slice equations at every
place or at every context of the last place, span rows by testing
w.j == i on the orbit representatives, live orbits by comparing value
types and places of values on them, and the half-commutant equations at
every pair (a, b) instead of one per orbit.  The diagrams are walked as
nested set partitions instead of restricted-growth words, and psi is read
off its definition entry by entry.  Gibson's G(r, c) is found by a
backtracking search over its support instead of its closed form.  The
index helpers below (the place action, composition, the collapsing
renumbering and the places of a value) and the cofactor determinant live
here because only tests use them.
"""

import itertools

from swdual import diagrams as dg
from swdual import indices as ix
from swdual import tensor as tn
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
    every block of d.  With ``fixed_last`` the entries are those of
    psi_on_fixed_last, indexed by I(n, d.r - 1), and the word is
    i.n + j.n."""
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
