"""Gibson's permutation-matrix basis of the generalised doubly-stochastic
matrices.

The basis consists of the circulant of the descending n-cycle, the
identity, and one permutation matrix G(r,c) for each zero position (r,c)
of circulant-plus-identity; there are n(n-2) + 2 = (n-1)^2 + 1 of them and
they span freely over any commutative ring.  Decomposition of a GDS matrix
into the basis uses only subtraction of entries, so it works over Z/4 and
Z/6 as well as over fields.
"""

from __future__ import annotations

from . import indices as ix
from .invariants import is_gds
from .rings import sparse_rank


def _mod1(i, n):
    """i reduced into {1..n}."""
    return (i - 1) % n + 1


def circulant_q(n):
    """One-line notation of the descending n-cycle (n, n-1, ..., 1).

    Its permutation matrix has ones on the superdiagonal and a single 1 in
    the bottom-left corner: entry (i, j) is 1 exactly when j is one more
    than i modulo n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return tuple(_mod1(j - 1, n) for j in range(1, n + 1))


def perm_rows(ring, w):
    """Dense rows of the permutation matrix of w (entry 1 at (w(j), j))."""
    n = len(w)
    rows = [[ring.zero] * n for _ in range(n)]
    for j in range(1, n + 1):
        rows[w[j - 1] - 1][j - 1] = ring.one
    return rows


def gamma_set(n):
    """Zero positions of circulant-plus-identity, in row-major order.

    These are the pairs with row neither equal to the column nor one less
    modulo n; there are n(n-2) of them (empty for n = 2).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if r != c and _mod1(r + 1, n) != c:
                out.append((r, c))
    assert len(out) == n * (n - 2)
    return out


def gibson_g(n, r, c):
    """The unique permutation supported in circulant-plus-identity away
    from the forced entry at (r, c); returned in one-line notation.

    Away from column c, each column j maps to j or j - 1 mod n.  Column c
    maps to r, so the columns c+1, ..., r, read cyclically, map to j - 1
    and every other column to j.  The minor rule (deleting row r and
    column c leaves the descending cycle when r < c, the identity when
    c < r) cross-validates the result.
    """
    if (r, c) not in set(gamma_set(n)):
        raise ValueError("(%d, %d) is not a zero position" % (r, c))
    w = list(range(1, n + 1))
    w[c - 1] = r
    j = c
    while j != r:
        j = _mod1(j + 1, n)
        w[j - 1] = _mod1(j - 1, n)
    w = tuple(w)
    _check_minor_rule(n, r, c, w)
    return w


def _check_minor_rule(n, r, c, w):
    minor_rows = [i for i in range(1, n + 1) if i != r]
    minor_cols = [j for j in range(1, n + 1) if j != c]
    expected_cycle = r < c
    for mi, i in enumerate(minor_rows):
        for mj, j in enumerate(minor_cols):
            entry = 1 if w[j - 1] == i else 0
            if expected_cycle:
                want = 1 if _mod1(mj, n - 1) == mi + 1 else 0
            else:
                want = 1 if mi == mj else 0
            if entry != want:
                raise RuntimeError(
                    "minor rule fails for G(%d,%d) at (%d,%d)" % (r, c, i, j)
                )


def gibson_basis(n):
    """Ordered labelled basis: the G(r,c) in row-major order of their
    forced positions, then the circulant, then the identity."""
    elements = [("G(%d,%d)" % (r, c), gibson_g(n, r, c)) for (r, c) in gamma_set(n)]
    elements.append(("Q", circulant_q(n)))
    elements.append(("I", ix.perm_identity(n)))
    assert len(elements) == (n - 1) ** 2 + 1
    return elements


def gibson_decompose(ring, rows):
    """Coefficients of a GDS matrix in the Gibson basis, over any ring.

    Subtracts the forced-position multiples of the G(r,c), then reads the
    circulant and identity coefficients off the last row of the remainder;
    the remainder must vanish exactly, and the reconstruction is returned
    alongside the coefficients for the caller to compare.
    """
    n = len(rows)
    if n < 2:
        raise ValueError("need n >= 2")
    if is_gds(ring, rows) is None:
        raise ValueError("input is not generalised doubly-stochastic")
    coeffs = {}
    remainder = [row[:] for row in rows]
    for (r, c) in gamma_set(n):
        coeff = remainder[r - 1][c - 1]
        coeffs["G(%d,%d)" % (r, c)] = coeff
        if coeff != ring.zero:
            g = gibson_g(n, r, c)
            for j in range(1, n + 1):
                i = g[j - 1]
                remainder[i - 1][j - 1] = ring.sub(remainder[i - 1][j - 1], coeff)
    coeffs["Q"] = remainder[n - 1][0]
    coeffs["I"] = remainder[n - 1][n - 1]
    qn = circulant_q(n)
    for j in range(1, n + 1):
        remainder[qn[j - 1] - 1][j - 1] = ring.sub(
            remainder[qn[j - 1] - 1][j - 1], coeffs["Q"]
        )
        remainder[j - 1][j - 1] = ring.sub(remainder[j - 1][j - 1], coeffs["I"])
    if any(v != ring.zero for row in remainder for v in row):
        raise RuntimeError("Gibson residual is nonzero")
    return coeffs


def reconstruct(ring, n, coeffs):
    rows = [[ring.zero] * n for _ in range(n)]
    for label, w in gibson_basis(n):
        coeff = coeffs.get(label, ring.zero)
        if coeff == ring.zero:
            continue
        for j in range(1, n + 1):
            i = w[j - 1]
            rows[i - 1][j - 1] = ring.add(rows[i - 1][j - 1], coeff)
    return rows


def linear_independence_check(n, ring):
    """Rank of the vectorised basis equals its size, over a field: the
    permutation matrix of w has a one at (w(j), j) for each column j."""
    vecs = [{(w[j] - 1) * n + j: ring.one for j in range(n)} for _, w in gibson_basis(n)]
    return sparse_rank(ring, vecs) == (n - 1) ** 2 + 1
