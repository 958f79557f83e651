"""Multi-indices I(n,r), value types, weights, and the two group actions.

Multi-indices are plain tuples of 1-based values, always listed and stored
in lexicographic order -- the single global row/column order used by every
matrix in this package.  Permutations of {1..n} are tuples of images
``(w(1), ..., w(n))``.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache


def all_indices(n, r):
    """I(n,r) in lexicographic order."""
    return list(itertools.product(range(1, n + 1), repeat=r))


def index_rank(n, idx):
    """Position of a multi-index in the lexicographic order of I(n,r)."""
    rank = 0
    for v in idx:
        rank = rank * n + (v - 1)
    return rank


def index_from_rank(n, r, rank):
    out = []
    for _ in range(r):
        out.append(rank % n + 1)
        rank //= n
    return tuple(reversed(out))


def format_index(idx):
    """Compact form "432" when all values are single digits, else "4,13,2"."""
    if all(v <= 9 for v in idx):
        return "".join(str(v) for v in idx)
    return ",".join(str(v) for v in idx)


def parse_index(text):
    t = text.strip()
    if "," in t:
        return tuple(int(p) for p in t.split(","))
    return tuple(int(ch) for ch in t)


# -- statistics -------------------------------------------------------------


def value_type(idx):
    """Set partition of places by equal values, canonically ordered."""
    positions = {}
    for place, v in enumerate(idx, start=1):
        positions.setdefault(v, []).append(place)
    blocks = sorted(tuple(b) for b in positions.values())
    return tuple(blocks)


def weight(idx, n):
    """Composition (mu_1, ..., mu_n) counting occurrences of each value."""
    mu = [0] * n
    for v in idx:
        mu[v - 1] += 1
    return tuple(mu)


def sharp(idx):
    """Number of distinct values in the multi-index."""
    return len(set(idx))


def places_of(idx, v):
    """The set of places where value v appears (Lambda_v)."""
    return frozenset(p for p, x in enumerate(idx, start=1) if x == v)


# -- group actions ----------------------------------------------------------


def act_left(w, idx):
    """w(i_1) ... w(i_r), the left W_n action on values."""
    return tuple(w[v - 1] for v in idx)


def map_ranks(images, n, r):
    """Rank in I(n,r) of (images[i_1 - 1], ..., images[i_r - 1]) for each
    multi-index i of I(len(images), r), in lexicographic order.

    ``images`` lists the 1-based values in {1..n} that 1, 2, ... map to.
    Built place by place, so the cost is linear in the table length.
    """
    ranks = [0]
    shifted = [v - 1 for v in images]
    for _ in range(r):
        ranks = [base * n + t for base in ranks for t in shifted]
    return ranks


def act_ranks(w, r):
    """Rank of w(j_1) ... w(j_r) for each j of I(n,r) in lexicographic
    order, n = len(w): the left action as a table of flat ranks."""
    return map_ranks(w, len(w), r)


def act_right(idx, sigma):
    """Place permutation: the value at place a moves to place sigma(a)."""
    r = len(idx)
    out = [0] * r
    for a in range(r):
        out[sigma[a] - 1] = idx[a]
    return tuple(out)


def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_inverse(w):
    inv = [0] * len(w)
    for x, wx in enumerate(w, start=1):
        inv[wx - 1] = x
    return tuple(inv)


def perm_compose(p, q):
    """Composite x -> p(q(x))."""
    return tuple(p[q[x - 1] - 1] for x in range(1, len(p) + 1))


def all_permutations(n):
    """W_n in lexicographic one-line order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def w0(n):
    """The order-reversing permutation j -> n + 1 - j."""
    return tuple(range(n, 0, -1))


# -- injective indices and their slices --------------------------------------


def injective_indices(n, r):
    """I'(n,r): multi-indices with r distinct values, lexicographic."""
    return [idx for idx in all_indices(n, r) if len(set(idx)) == r]


def slice_members(n, idx, alpha):
    """The alpha-slice of I'(n,r) through ``idx`` (1-based place alpha)."""
    used = set(idx) - {idx[alpha - 1]}
    out = []
    for t in range(1, n + 1):
        if t not in used:
            out.append(idx[: alpha - 1] + (t,) + idx[alpha:])
    return out


def alpha_slices(n, r):
    """All alpha-slices of I'(n,r), keyed by (alpha, context).

    The context is the multi-index with place alpha removed; every element
    of I'(n,r) lies in exactly r slices.
    """
    slices = {}
    for idx in injective_indices(n, r):
        for alpha in range(1, r + 1):
            ctx = idx[: alpha - 1] + idx[alpha:]
            slices.setdefault((alpha, ctx), []).append(idx)
    return slices


def drop_place(idx, alpha):
    return idx[: alpha - 1] + idx[alpha:]


# -- orbits of the simultaneous place-permutation action ---------------------


@lru_cache(maxsize=None)
def orbit_table(n, r):
    """Orbits of the right S_r action on I(n,r) x I(n,r), as two compact
    tables: ``orbit_of``, the orbit id of each entry position in row-major
    order, and ``leads``, the position of each orbit's lexicographically
    least pair, in order of orbit id.

    An orbit is a multiset of r place columns (i_a, j_a).  With code_a =
    (i_a - 1) n + j_a - 1 and B = r + 1, above every multiplicity, the key
    sum of B^code_a names that multiset (:func:`_key_rows`).  Orbit ids
    follow the first appearance of their keys in row-major order, where
    each orbit's least pair comes first.  The last degree is read one row
    at a time, so only the keys one degree down are held in full.
    """
    power = [(r + 1) ** c for c in range(n * n)]
    rows = [[0]]  # degree 0: the one pair, with the empty multiset
    for degree in range(r):
        rows = _key_rows(list(itertools.chain.from_iterable(rows)), n**degree, n, power)
    ids, orbit_of, leads, base = {}, array("I"), array("I"), 0
    for keys in rows:
        new = [key for key in dict.fromkeys(keys) if key not in ids]
        if new:
            # read backwards, each key's last write is its first position
            first = dict(zip(reversed(keys), range(base + len(keys) - 1, base - 1, -1)))
            leads.extend(map(first.__getitem__, new))
            ids.update(zip(new, itertools.count(len(ids))))
        orbit_of.extend(map(ids.__getitem__, keys))
        base += len(keys)
    return orbit_of, leads


def _key_rows(keys, size, n, power):
    """The rows of orbit keys one degree up, in row-major order, from the
    keys of degree d in row-major order (``size`` = n^d rows): the pair
    (i.t, j.s) adds ``power[(t - 1) n + s - 1]`` to the key of (i, j)."""
    for row in range(size):
        lower = keys[row * size : (row + 1) * size]
        for t in range(0, n * n, n):
            yield [k + w for k in lower for w in power[t : t + n]]


@lru_cache(maxsize=None)
def omega_orbits(n, r):
    """Orbits of the right S_r action on I(n,r) x I(n,r).

    Returns ``(orbit_of, reps)`` where ``orbit_of`` maps a pair of
    lexicographic ranks to its orbit id and ``reps`` lists one
    lexicographically least representative pair per orbit.  Both are
    lists read from :func:`orbit_table`; membership and the construction
    read only that compact table, so only the elimination oracles keep
    representatives.
    """
    orbit_of, leads = orbit_table(n, r)
    ids = list(range(len(leads)))  # one int object per orbit id
    indices = all_indices(n, r)
    size = len(indices)
    return list(map(ids.__getitem__, orbit_of)), [
        (indices[p // size], indices[p % size]) for p in leads
    ]


def l_set(n, r, j):
    """L_j: injective indices fixing the first j places to 1..j."""
    if j > r:
        return []
    return [idx for idx in injective_indices(n, r) if idx[:j] == tuple(range(1, j + 1))]


def l_closure(n, r, j):
    """Place-permutation closure of L_j: injective indices containing 1..j."""
    need = set(range(1, j + 1))
    return [idx for idx in injective_indices(n, r) if need <= set(idx)]


# -- order-preserving renumberings used by excision/inflation ----------------


def embed_avoiding(v, skip):
    """Order-preserving image of v in {1..n} \\ {skip}, given v in {1..n-1}."""
    return v if v < skip else v + 1


def collapse_avoiding(v, skip):
    """Inverse of :func:`embed_avoiding`; v must differ from ``skip``."""
    if v == skip:
        raise ValueError("value %d is excised" % v)
    return v if v < skip else v - 1


def embed_index(idx, skip):
    return tuple(embed_avoiding(v, skip) for v in idx)


def collapse_index(idx, skip):
    return tuple(collapse_avoiding(v, skip) for v in idx)
