"""Output checks that share no code path with the library.

Every helper here works on raw row-major value lists and plain tuples, with
its own arithmetic, so a defect in swdual's index, ring or slice code cannot
make a wrong output look right.  The dimension checks use closed forms
(Halverson-Ram 2005; Benkart-Halverson 2019) instead of elimination.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod


# ---------------------------------------------------------------------------
# Closed-form dimensions
# ---------------------------------------------------------------------------


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def hook_length_degree(shape):
    """f^lambda, the number of standard Young tableaux of the shape."""
    n = sum(shape)
    conjugate = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    hooks = [
        shape[row] - col + conjugate[col] - row - 1
        for row in range(len(shape))
        for col in range(shape[row])
    ]
    return factorial(n) // prod(hooks)


def centraliser_dimension(n, r):
    """dim E(n,r) = sum over lambda |- n with n - lambda_1 <= r of (f^lambda)^2."""
    return sum(
        hook_length_degree(shape) ** 2
        for shape in partitions(n)
        if n - shape[0] <= r
    )


def stirling2(m, k):
    """Stirling number of the second kind S(m, k)."""
    row = [1] + [0] * k  # S(0, j)
    for i in range(1, m + 1):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def wn_end_dimension(n, r):
    """dim End_{W_n}(V^{(x)r}) = sum over k <= n of S(2r, k)."""
    return sum(stirling2(2 * r, k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Raw values, indices and matrices
# ---------------------------------------------------------------------------


def normaliser(ring_name):
    """Map an integer or rational to the canonical raw value of the ring."""
    if ring_name == "z":
        return int
    if ring_name == "q":
        return Fraction
    modulus = int(ring_name[2:])
    return lambda x: int(x) % modulus


def format_value(x):
    """Decimal form of a raw value, "p/q" for a non-integral rational."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return "%d/%d" % (x.numerator, x.denominator)
    return str(int(x))


def indices(n, r):
    """I(n,r) in lexicographic order."""
    return list(itertools.product(range(1, n + 1), repeat=r))


def rank(n, idx):
    out = 0
    for v in idx:
        out = out * n + v - 1
    return out


def places(idx, value):
    return tuple(p for p, v in enumerate(idx) if v == value)


def permutation_combination(n, r, ring_name, coeffs):
    """sum of c_w * (P(w) tensor-power r) as a raw row-major list.

    The Kronecker power of P(w) has a 1 at (w(j), j) for every column j,
    with w acting on each place of j.
    """
    norm = normaliser(ring_name)
    idxs = indices(n, r)
    size = len(idxs)
    acc = [0] * (size * size)
    for w, c in coeffs.items():
        if not c:
            continue
        for col, j in enumerate(idxs):
            acc[rank(n, tuple(w[v - 1] for v in j)) * size + col] += c
    return [norm(x) for x in acc]


def add_matrices(ring_name, matrices):
    norm = normaliser(ring_name)
    return [norm(sum(vals)) for vals in zip(*matrices)]


# ---------------------------------------------------------------------------
# Structural checks; each returns None when it holds, else a short reason
# ---------------------------------------------------------------------------


def check_restriction(n, r, ring_name, a, b):
    """Every block row sum and every block column sum of ``a`` (degree r)
    must equal ``b`` (degree r-1): the leading place of the slices."""
    norm = normaliser(ring_name)
    low = n ** (r - 1)
    size = n * low
    for pr in range(low):
        for qr in range(low):
            want = norm(b[pr * low + qr])
            for fixed in range(n):
                row_sum = sum(
                    a[(fixed * low + pr) * size + j * low + qr] for j in range(n)
                )
                col_sum = sum(
                    a[(i * low + pr) * size + fixed * low + qr] for i in range(n)
                )
                if norm(row_sum) != want or norm(col_sum) != want:
                    return "slice sums at block %d differ from the input at (%d, %d)" % (
                        fixed + 1, pr, qr,
                    )
    return None


def check_entries(n, matrix, size, expected):
    """Entries keyed by (row index, column index) appear verbatim."""
    for (u, v), value in expected.items():
        got = matrix[rank(n, u) * size + rank(n, v)]
        if got != value:
            return "entry %s,%s is %s, expected %s" % (u, v, got, value)
    return None


def check_special(n, r, matrix, tag):
    """Nonzero entries only where the places of tag[0] in the row equal the
    places of tag[1] in the column."""
    i, j = tag
    idxs = indices(n, r)
    size = len(idxs)
    row_places = [places(u, i) for u in idxs]
    col_places = [places(v, j) for v in idxs]
    for ri in range(size):
        base = ri * size
        lam = row_places[ri]
        for rj in range(size):
            if matrix[base + rj] and col_places[rj] != lam:
                return "summand with tag %s has a nonzero entry off its pattern" % (tag,)
    return None


def check_decomposition(n, r, ring_name, a, summands, tags):
    """Summands add up to ``a`` and each is special with its tag."""
    if add_matrices(ring_name, summands) != list(a):
        return "summands do not add up to the input"
    for summand, tag in zip(summands, tags):
        reason = check_special(n, r, summand, tag)
        if reason:
            return reason
    return None
