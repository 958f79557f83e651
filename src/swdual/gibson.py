"""Gibson's permutation-matrix basis of the generalised doubly-stochastic
matrices.

The basis consists of the circulant of the descending n-cycle, the
identity, and one permutation matrix G(r,c) for each zero position (r,c)
of circulant-plus-identity; there are n(n-2) + 2 = (n-1)^2 + 1 of them and
they span freely over any commutative ring.  Matrices are degree-one
:class:`.tensor.TensorMatrix` values: each basis element is built by
:func:`.tensor.phi_sum`, and decomposition reads its coefficients off the
entries of the input with no division, so it works over Z/4 and Z/6 as
well as over fields.
"""

from __future__ import annotations

from . import indices as ix
from .extension import ConstructionFailure
from .invariants import is_invariant
from .tensor import phi_sum


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
                raise ConstructionFailure(
                    "minor rule fails for G(%d,%d) at (%d,%d)" % (r, c, i, j)
                )


def gibson_basis(n):
    """Ordered labelled basis: the G(r,c) in row-major order of their
    forced positions, then the circulant, then the identity; refused past
    MAX_HELD entries in all (n >= 33)."""
    ix.hold_at_most([((n - 1) ** 2 + 1) * n * n], "Gibson's basis at n = %d" % n, "entries")
    elements = [("G(%d,%d)" % (r, c), gibson_g(n, r, c)) for (r, c) in gamma_set(n)]
    elements.append(("Q", circulant_q(n)))
    elements.append(("I", ix.perm_identity(n)))
    assert len(elements) == (n - 1) ** 2 + 1
    return elements


def gibson_decompose(a):
    """Coefficients in the Gibson basis of a GDS matrix ``a``, a degree-one
    TensorMatrix with n >= 2, over any ring.

    G(r,c) is the only basis element with a one at its forced position
    (r,c): Q and I live on circulant-plus-identity, and every other G adds
    only its own forced position.  So its coefficient is a(r,c), and those
    of Q and I are the entries at (n,1) and (n,n) of a less the G part.
    One reconstruction checks the result; a mismatch is a
    :class:`.extension.ConstructionFailure`.
    """
    n, ring = a.n, a.ring
    if a.r != 1 or n < 2:
        raise ValueError("need a degree-one matrix with n >= 2")
    if not is_invariant(a):
        raise ValueError("input is not generalised doubly-stochastic")
    coeffs = {"G(%d,%d)" % (r, c): a.data[(r - 1) * n + c - 1] for (r, c) in gamma_set(n)}
    rest = a.sub(reconstruct(ring, n, coeffs))
    coeffs["Q"] = rest.data[(n - 1) * n]
    coeffs["I"] = rest.data[n * n - 1]
    if reconstruct(ring, n, coeffs) != a:
        raise ConstructionFailure("Gibson residual is nonzero")
    return coeffs


def reconstruct(ring, n, coeffs):
    """The sum of the basis elements weighted by ``coeffs``, a map from
    labels to ring values (a missing label weighs zero)."""
    return phi_sum(
        {w: coeffs.get(label, ring.zero) for label, w in gibson_basis(n)}, n, 1, ring
    )
