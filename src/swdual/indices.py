"""Multi-indices I(n,r), value types, the left W_n action and S_r orbits.

Multi-indices are plain tuples of 1-based values, always listed and stored
in lexicographic order -- the single global row/column order used by every
matrix in this package.  Permutations of {1..n} are tuples of images
``(w(1), ..., w(n))``.

Every enumeration that outgrows a power of n counts its items before it
builds any, and refuses more than MAX_HELD (:func:`hold_at_most`).
"""

from __future__ import annotations

import itertools
import operator
from array import array
from functools import lru_cache


# the most items one call may enumerate, or entries a matrix may have
# unless the caller passes unsafe_large
MAX_HELD = 2**20


class CapExceeded(ValueError):
    pass


def hold_at_most(counts, owner, items):
    """CapExceeded at the first of ``counts``, growing partial counts of
    the ``items`` that ``owner`` holds, past MAX_HELD."""
    for count in counts:
        if count > MAX_HELD:
            raise CapExceeded("%s has more than %d %s, the most one invocation may hold"
                              % (owner, MAX_HELD, items))


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


def parse_index(text, r=None):
    """The multi-index that :func:`format_index` writes as ``text``.  A
    text without commas is read digit by digit, except that at a given
    degree r = 1 it is the one value ("10" is (10,)); at a given degree r,
    a text of another length is a ValueError."""
    parts = text.strip().split(",")
    if len(parts) == 1 and r != 1:
        parts = parts[0]
    if r is not None and len(parts) != r:
        raise ValueError("%r is no index of degree %d" % (text, r))
    return tuple(map(int, parts))


# -- value types ------------------------------------------------------------


def value_type(idx):
    """Set partition of places by equal values, canonically ordered."""
    positions = {}
    for place, v in enumerate(idx, start=1):
        positions.setdefault(v, []).append(place)
    blocks = sorted(tuple(b) for b in positions.values())
    return tuple(blocks)


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


def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_inverse(w):
    inv = [0] * len(w)
    for x, wx in enumerate(w, start=1):
        inv[wx - 1] = x
    return tuple(inv)


def all_permutations(n):
    """W_n in lexicographic one-line order; refused past MAX_HELD."""
    hold_at_most(itertools.accumulate(range(1, n + 1), operator.mul), "W_%d" % n, "permutations")
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


# -- injective indices and their slices --------------------------------------


def injective_counts(n, r):
    """|I'(n,1)|, ..., |I'(n,r)|, the partial products n (n-1) ...
    (n-r+1); none when r > n, where I'(n,r) is empty."""
    return itertools.accumulate(range(n, n - r, -1), operator.mul) if r <= n else ()


def injective_indices(n, r):
    """I'(n,r): multi-indices with r distinct values, lexicographic;
    refused past MAX_HELD, and empty when r > n."""
    hold_at_most(injective_counts(n, r), "I'(%d,%d)" % (n, r), "injective indices")
    return list(itertools.permutations(range(1, n + 1), r))


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

    An orbit is a multiset of r place columns (i_a, j_a), each a code c_a =
    (i_a - 1) n + j_a - 1 among N = n^2, and its key is whichever of two
    injective keys has fewer bits at (n, r) (:func:`_key_rows` adds them up
    column by column).  One is the sum of (r + 1)^c_a, whose base-(r + 1)
    digits are the multiplicities, each at most r: N log2(r + 1) bits,
    short at small n.  The other packs the power sums p_k = sum of (c_a +
    1)^k, k = 1..m with m = min(r, N - 1), into fields of W bits: with the
    size r known, p_1..p_m fix the multiset (Newton's identities, or the
    Vandermonde system on the N multiplicities), and every p_k is at most
    r N^m < 2^W, so no field carries into the next.  That key has m W bits,
    short at small r, and at n = 1, where m = 0, every key is 0.  Orbit ids
    follow the first appearance of their keys in row-major order, where
    each orbit's least pair comes first, so the tables do not depend on the
    key.  The last degree is read one row at a time, so only the keys one
    degree down are held in full.
    """
    codes = n * n
    m = min(r, codes - 1)
    width = (r * codes**m).bit_length()
    if (r + 1) ** codes > 1 << (m * width):
        power = [sum((c + 1) ** k << width * (k - 1) for k in range(1, m + 1))
                 for c in range(codes)]
    else:
        power = [(r + 1) ** c for c in range(codes)]
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

    Returns ``(orbit_of, leads)``, the tables of :func:`orbit_table` with
    ``orbit_of`` copied to a list of shared ints, which the elimination
    oracles walk in their hot loops.
    """
    orbit_of, leads = orbit_table(n, r)
    ids = list(range(len(leads)))  # one int object per orbit id
    return list(map(ids.__getitem__, orbit_of)), leads


def l_closure(n, r, j):
    """Injective indices containing 1..j: the place-permutation closure of
    L_j, the injective indices whose first j places hold 1..j."""
    need = set(range(1, j + 1))
    return [idx for idx in injective_indices(n, r) if need <= set(idx)]


# -- order-preserving renumberings used by excision/inflation ----------------


def embed_avoiding(v, skip):
    """Order-preserving image of v in {1..n} \\ {skip}, given v in {1..n-1}."""
    return v if v < skip else v + 1


def embed_index(idx, skip):
    return tuple(embed_avoiding(v, skip) for v in idx)
