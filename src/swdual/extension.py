"""Division-free extension and decomposition of invariants.

Everything here runs over an arbitrary commutative coefficient ring: a
forced entry is always a known slice sum minus already-known entries, so
only ring addition and subtraction are used.  This is what makes composite
moduli such as Z/4 and Z/6 valid test rings.

``extend`` produces the unique invariant one degree up that restricts to a
given invariant and agrees with an assignment on the free extension
pattern; ``decompose`` splits an invariant into special summands along its
last block row, one per block column, steered by an assignment on the free
decomposition pattern.  Free values left unspecified default to zero.
Every construction is verified before it is returned; a verification
failure raises :class:`ConstructionFailure` and indicates a bug, not user
error.  A non-invariant input is user error: the public entries refuse it
with :class:`NotInvariantError` before anything is built.  Over Q each
public entry runs, and verifies, on integers over one common denominator
(:func:`.rings.clear_denominators`, which bounds it); values stay ``Fraction``.

The restriction b pins one copy rule, built once per (n, r) as a rank
table: an entry at a value-type mismatch is zero, and any other entry
(i, j) equals b(i - beta, j - beta), beta the first place of i whose
value repeats an earlier one.  Only injective-by-injective entries are
left open, and at n = r even those follow the rule with beta the last
place (see :func:`_extend_direct`), which makes the extension unique for
n <= r.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import indices as ix
from . import patterns as pt
from .invariants import (
    NotInvariantError,
    _h_mask,
    block,
    check_membership,
    eta,
    is_special,
    restrict,
    theta,
    zero_rowcol_implies_special,
)
from .rings import Ring, clear_denominators, over_denominator
from .tensor import TensorMatrix, matrix_sum


class ConstructionFailure(RuntimeError):
    """A forced slice closed with a mismatched sum, or a verification of a
    constructed invariant failed."""


@dataclass(frozen=True)
class Assignment:
    """Values for the free entries of a pattern."""

    pattern: pt.FreePattern
    values: dict


def _as_value_map(ring, f):
    if f is None:
        return {}
    if isinstance(f, Assignment):
        f = f.values
    out = {}
    for key, value in f.items():
        out[key] = value.value if hasattr(value, "value") else value
    return out


def _on_integers(a, f):
    """Over Q: ``(L, L * a over Z, L * f)``, L one common denominator."""
    f = _as_value_map(a.ring, f)
    den, ints = clear_denominators(list(f.values()) + a.data)
    return den, TensorMatrix(a.n, a.r, Ring.integers(), ints[len(f) :]), dict(zip(f, ints))


def _over(den, a):
    """The matrix a / den over Q of a matrix over Z."""
    return TensorMatrix(a.n, a.r, Ring.rationals(), over_denominator(den, a.data))


_POISON = object()


# ---------------------------------------------------------------------------
# Initialisation: entries forced by the degree below
# ---------------------------------------------------------------------------


def _require_invariant(a):
    """Raise NotInvariantError naming the first violation unless ``a`` is
    an invariant."""
    report = check_membership(a, stop_early=True)
    if not report.in_E:
        raise NotInvariantError(
            "input is not an invariant; first violation: %s"
            % json.dumps(report.first_violation, sort_keys=True)
        )


@lru_cache(maxsize=None)
def _copy_sources(n, r):
    """The copy rule of degree r as a gather table over ``[zero] + b.data``.

    Entry k, for the k-th entry position of an I(n,r) matrix in row-major
    order, is 0 where :func:`invariants._h_mask` marks a value-type
    mismatch, and otherwise 1 + the position of (i - beta, j - beta) in
    the degree r-1 matrix: beta is the first place of the row i whose
    value occurs at an earlier place, or the last place when i is
    injective.
    """
    size, lower = n**r, n ** (r - 1)
    mask = _h_mask(n, r)
    drops = []  # per place: the rank of each index with that place dropped
    for alpha in range(1, r + 1):
        stride = n ** (r - alpha)
        drops.append([k // (n * stride) * stride + k % stride for k in range(size)])
    table = []
    for ri, i in enumerate(ix.all_indices(n, r)):
        beta = next((a for a in range(2, r + 1) if i[a - 1] in i[: a - 1]), r)
        drop = drops[beta - 1]
        base = drop[ri] * lower + 1
        row_mask = mask[ri * size : (ri + 1) * size]
        table.extend(0 if m else base + d for m, d in zip(row_mask, drop))
    return tuple(table)


def _copy(b):
    """The degree r+1 entry list given by the copy rule."""
    window = [b.ring.zero] + b.data
    return list(map(window.__getitem__, _copy_sources(b.n, b.r + 1)))


def initialise(b, validate=True):
    """Fill every entry of the degree r+1 matrix that the restriction pins.

    Value-type mismatches are zero; an entry whose row has a repeated value
    copies the restriction entry at the pair with one duplicate place
    dropped.  Entries with both indices injective stay ``None``.  The input
    must itself be an invariant (checked unless the caller has already
    verified it).
    """
    if validate:
        _require_invariant(b)
    n, r = b.n, b.r + 1
    size = n**r
    data = _copy(b)
    injective = [ix.index_rank(n, i) for i in ix.injective_indices(n, r)]
    for ri in injective:
        for rj in injective:
            data[ri * size + rj] = None
    return data


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def extend(b, f=None, verify=True):
    """The unique extension of an invariant with the given free values.

    ``b`` lives in degree r-1; ``f`` maps entries of the free pattern for
    degree r (pairs of injective multi-indices) to ring values, defaulting
    to zero.  The result restricts to ``b`` and returns the pattern values
    verbatim.  With ``verify`` set, a non-invariant ``b`` is refused with
    :class:`NotInvariantError` before anything is built.
    """
    if b.ring.kind == "q":
        den, b, f = _on_integers(b, f)
        return _over(den, extend(b, f, verify))
    ring = b.ring
    n, r = b.n, b.r + 1
    f = _as_value_map(ring, f)
    pattern = pt.build_f(n, r)
    allowed = set(pattern.entries)
    for key in f:
        if key not in allowed:
            raise ValueError("assignment key %r is not a free-pattern entry" % (key,))
    if verify:
        _require_invariant(b)

    if n <= r:
        a = _extend_direct(b)
    elif r == 1:
        a = _extend_rank_one(b, f)
    else:
        a = _extend_recursive(b, f)

    if verify:
        _verify_extension(a, b, f)
    return a


def _verify_extension(a, b, f):
    report = check_membership(a)
    if not report.in_E:
        raise ConstructionFailure("extension fails membership: %r" % (report.first_violation,))
    if restrict(a, validate=False) != b:
        raise ConstructionFailure("extension does not restrict to the input")
    for key, value in f.items():
        if a.get(*key) != value:
            raise ConstructionFailure("free entry %r not returned verbatim" % (key,))


def _extend_direct(b):
    """Unique extension for n <= r: every entry by the copy rule.

    Below n = r every row repeats a value.  At n = r, take i and j
    injective and q = j - r: row i of the last-place slice minor at
    (i - r, q) sums to b(i - r, q) over the columns q.t, and every q.t
    with t != j_r repeats a value of q, so its entry is a value-type
    mismatch and zero.  The sum is the entry at (i, j) alone: the copy
    rule with beta the last place.
    """
    return TensorMatrix(b.n, b.r + 1, b.ring, _copy(b))


def _extend_rank_one(b, f):
    """Extension from degree zero: the base free pattern {(i,j): i,j >= 2}."""
    n, ring = b.n, b.ring
    s = b.data[0]
    sub = ring.sub
    rows = [[None] * n for _ in range(n)]
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            rows[i - 1][j - 1] = f.get(((i,), (j,)), ring.zero)
    for i in range(2, n + 1):
        rows[i - 1][0] = ring.sub(s, ring.sum(rows[i - 1][1:]))
    for j in range(1, n + 1):
        rows[0][j - 1] = ring.sub(s, ring.sum(rows[i][j - 1] for i in range(1, n)))
    # the corner is forced twice; both forcings must agree
    if ring.sum(rows[0]) != s:
        raise ConstructionFailure("rank-one corner entry is inconsistent")
    data = [v for row in rows for v in row]
    return TensorMatrix(n, 1, ring, data)


def _extend_recursive(b, f):
    """Extension for n > r >= 2 via the block-row construction.

    The free values on the block-row part of the pattern translate into a
    decomposition of ``b``; the remaining free values are hit by choosing
    the per-block inflation assignments block by block, assigning each
    shared pattern position to the largest block containing it and
    subtracting the contributions of earlier blocks.
    """
    ring = b.ring
    n, r = b.n, b.r + 1
    f_d = {}
    for (j, p, q) in pt.build_d(n, r - 1).entries:
        key = ((n,) + p, (j,) + q)
        f_d[(j, p, q)] = f.get(key, ring.zero)
    blocks = decompose(b, f_d, verify=False)

    labels = {j: pt.per_block_labels(n, r, j) for j in range(1, n + 1)}
    # increasing j: the largest block owns a shared position
    owner = {x: j for j in range(1, n + 1) for x, _ in labels[j]}
    parts = []
    for j in range(1, n + 1):
        g = {}
        for x, y in labels[j]:
            if owner[x] == j:
                target = f.get(x, ring.zero)
                g[y] = ring.sub(target, ring.sum(part.get(*x) for part in parts))
            else:
                g[y] = ring.zero
        c = eta(blocks[j - 1], n, j)
        parts.append(theta(extend(c, g, verify=False), n, j))
    return matrix_sum(parts)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def decompose(a, f=None, basis="last-row", verify=True):
    """Split an invariant into special summands along a block row or column.

    For the default last block row the summands ``[A(1), ..., A(n)]`` have
    the j-th one special with tag (n, j); with ``basis="row:i"`` the tags
    are (i, j), and with ``basis="col:j"`` the k-th summand is special with
    tag (k, j).  The summands sum to ``a``, restrict blockwise to the
    blocks of ``a``, and agree with ``f`` on the free decomposition
    pattern carried to the basis by :class:`patterns.Basis`.  With
    ``verify`` set, a non-invariant ``a`` is refused with
    :class:`NotInvariantError` before anything is built.
    """
    if a.ring.kind == "q":
        den, a, f = _on_integers(a, f)
        return [_over(den, s) for s in decompose(a, f, basis, verify)]
    based = pt.parse_basis(basis, a.n)
    if verify:
        _require_invariant(a)
    f = {based.key(key): v for key, v in _as_value_map(a.ring, f).items()}
    return based.summands(_decompose_last_row(based.matrix(a), f, verify))


def _decompose_last_row(a, f, verify):
    n, r, ring = a.n, a.r, a.ring
    if r < 1:
        raise ValueError("decomposition needs degree >= 1")
    d_pattern = pt.build_d(n, r)
    allowed = set(d_pattern.entries)
    for key in f:
        if key not in allowed:
            raise ValueError("assignment key %r is not a decomposition-pattern entry" % (key,))
    blocks_of_a = [block(a, n, j) for j in range(1, n + 1)]

    if n == 1:  # the one summand, special with tag (1, 1), is a itself
        summands = [a]
    elif n <= r + 1:
        summands = [
            theta(extend(eta(blocks_of_a[j - 1], n, j), None, verify=False), n, j)
            for j in range(1, n + 1)
        ]
    else:
        summands = [None] * n
        residual = a
        for j in range(n, r + 1, -1):
            g = {
                y: f.get((j,) + x, ring.zero)
                for x, y in pt.per_block_labels(n, r, j)
            }
            a_j = theta(extend(eta(blocks_of_a[j - 1], n, j), g, verify=False), n, j)
            summands[j - 1] = a_j
            residual = residual.sub(a_j)
        for j in range(r + 1, 1, -1):
            g = _replay_forced_assignment(a, blocks_of_a[j - 1], residual, j, f)
            a_j = theta(extend(eta(blocks_of_a[j - 1], n, j), g, verify=False), n, j)
            _check_column_agreement(a_j, residual, n, r, j)
            summands[j - 1] = a_j
            residual = residual.sub(a_j)
        summands[0] = residual
        if not zero_rowcol_implies_special(residual, n, 1):
            raise ConstructionFailure(
                "final decomposition residual has a nonzero off block"
            )

    if verify:
        _verify_decomposition(a, summands, f)
    return summands


def _verify_decomposition(a, summands, f):
    n, r = a.n, a.r
    if matrix_sum(summands) != a:
        raise ConstructionFailure("decomposition summands do not add up")
    for j, s in enumerate(summands, start=1):
        if not is_special(s, n, j):
            raise ConstructionFailure("summand %d is not special" % j)
        if not check_membership(s).in_E:
            raise ConstructionFailure("summand %d fails membership" % j)
        if restrict(s, validate=False) != block(a, n, j):
            raise ConstructionFailure("summand %d does not restrict to its block" % j)
    for (j, p, q), value in f.items():
        if summands[j - 1].get(p, q) != value:
            raise ConstructionFailure(
                "decomposition free entry %r not returned verbatim" % ((j, p, q),)
            )


def _insert_place(ctx, alpha, t):
    return ctx[: alpha - 1] + (t,) + ctx[alpha - 1 :]


def _replay_forced_assignment(a, b_j, residual, j, f):
    """Recover the full per-block assignment for a constrained block.

    Replays the modified colouring along each pattern row of the block:
    entries containing j vanish by specialness, prescribed-column entries
    are read from the running difference, free columns take their
    assignment values, and every cascade-forced column is a slice sum of
    the block restriction minus known entries.
    """
    n, r, ring = a.n, a.r, a.ring
    colouring = pt.modified_colouring(n, r, j)
    row_cols = {}
    for (u, v), y in pt.per_block_labels(n, r, j):
        row_cols.setdefault(u, {})[v] = y
    sub = ring.sub
    g = {}
    for u in sorted(row_cols):
        cols = row_cols[u]
        vals = {}
        for ev in colouring.events:
            v = ev.index
            if ev.initial:
                vals[v] = ring.zero if j in v else residual.get(u, v)
            elif ev.colour == 1:
                if v in cols:
                    vals[v] = f.get((j, u, v), ring.zero)
                else:
                    vals[v] = _POISON
            else:
                alpha, ctx = ev.forcing_slice
                total = b_j.get(ix.drop_place(u, alpha), ctx)
                used = set(ctx)
                for t in range(1, n + 1):
                    if t == v[alpha - 1] or t in used:
                        continue  # t in ctx would duplicate: zero by value type
                    other = vals[_insert_place(ctx, alpha, t)]
                    if other is _POISON:
                        total = _POISON
                        break
                    total = sub(total, other)
                vals[v] = total
        for v, y in cols.items():
            value = vals.get(v, _POISON)
            if value is _POISON:
                raise ConstructionFailure(
                    "forced chain for block %d row %s column %s passed through "
                    "an undetermined entry" % (j, ix.format_index(u), ix.format_index(v))
                )
            g[y] = value
    return g


def _check_column_agreement(a_j, residual, n, r, j):
    """The chosen summand must agree with the running difference on every
    prescribed column, over all rows avoiding the value n."""
    rows = [u for u in ix.all_indices(n, r) if n not in u]
    for v in ix.l_set(n, r, j - 1):
        if j in v:
            continue
        for u in rows:
            if a_j.get(u, v) != residual.get(u, v):
                raise ConstructionFailure(
                    "block %d disagrees with the residual at (%s, %s)"
                    % (j, ix.format_index(u), ix.format_index(v))
                )


# ---------------------------------------------------------------------------
# Prescribed rows / columns
# ---------------------------------------------------------------------------


class IncompatiblePrescription(ValueError):
    pass


def extend_with_prescription(b, prescribed, basis="last-row", verify=True):
    """Some extension agreeing with fully prescribed lines.

    ``prescribed`` maps full row indices inside the basis block row
    (default the last one) to complete row vectors over I(n,r); with
    ``basis="col:j"`` it maps column indices inside block column j to
    column vectors.  The free pattern entries lying inside the prescribed
    lines are read off verbatim, the remaining free entries default to
    zero, and the construction is checked against the prescription
    afterwards; any mismatch means the prescription was not compatible.
    """
    n, r = b.n, b.r + 1
    based = pt.parse_basis(basis, n)
    pattern = pt.build_f(n, r)
    cols_by_row = {}
    for (u, v) in pattern.entries:
        cols_by_row.setdefault(u, set()).add(v)
    f = {}
    norm = {}
    for u, vector in prescribed.items():
        u = based.index(tuple(u))
        if u[0] != n:
            raise ValueError("prescribed rows must lie in the basis block row")
        vector = [x.value if hasattr(x, "value") else x for x in vector]
        if len(vector) != n**r:
            raise ValueError("prescribed row has wrong length")
        vector = based.vector(vector, r)
        norm[u] = vector
        for v in cols_by_row.get(u, ()):
            f[(u, v)] = vector[ix.index_rank(n, v)]
    a = extend(based.matrix(b), f, verify=verify)
    for u, vector in norm.items():
        got = a.row(u)
        if got != vector:
            bad = next(
                k for k, (x, y) in enumerate(zip(got, vector)) if x != y
            )
            raise IncompatiblePrescription(
                "prescribed row %s disagrees at column %s"
                % (
                    ix.format_index(u),
                    ix.format_index(ix.index_from_rank(n, r, bad)),
                )
            )
    return based.matrix(a)


# ---------------------------------------------------------------------------
# Expressing invariants in the permutation span
# ---------------------------------------------------------------------------


class NotInSpanError(ValueError):
    pass


def read_off_coefficients(a):
    """Coefficients x_w with A = sum of x_w phi(w), read at degree r = n.

    The column 1,2,...,n meets each permutation matrix in a distinct row,
    so the row w(1)...w(n) of that column carries exactly x_w.  The result
    is validated by exact reconstruction.
    """
    if a.r != a.n:
        raise ValueError("read-off needs degree equal to the rank")
    return _read_off(a)


def _read_off(a):
    n, r, ring = a.n, a.r, a.ring
    base_col = tuple(range(1, n + 1)) + (1,) * (r - n)
    coeffs = {}
    for w in ix.all_permutations(n):
        value = a.get(ix.act_left(w, base_col), base_col)
        if value != ring.zero:
            coeffs[w] = value
    _check_reconstruction(a, coeffs)
    return coeffs


def _check_reconstruction(a, coeffs):
    """Rebuild the sum of x_w phi(w) entry by entry: phi(w) holds a one at
    (w.j, j) for each column j."""
    ring, size = a.ring, a.size
    add = ring.add
    total = [ring.zero] * (size * size)
    for w, x in coeffs.items():
        for rj, ri in enumerate(ix.act_ranks(w, a.r)):
            pos = ri * size + rj
            total[pos] = add(total[pos], x)
    if total != a.data:
        raise NotInSpanError("matrix is not the claimed permutation combination")


def lift_permutation(wbar, j):
    """The permutation of {1..n} sending j to n and acting as ``wbar`` on
    the rest through the order-preserving renumberings."""
    n = len(wbar) + 1
    w = [0] * n
    w[j - 1] = n
    for t in range(1, n):
        w[ix.embed_avoiding(t, j) - 1] = wbar[t - 1]
    return tuple(w)


def express_in_permutation_span(a, verify=True):
    """Exact coefficients expressing an invariant in the span of the
    Kronecker powers of permutation matrices, over any ring.

    For degree at least the rank the coefficients are read off directly.
    Below that the invariant is decomposed into special summands whose
    excisions live one rank lower; their recursive expressions lift back
    through the inflation, which sends the power of a permutation fixing
    nothing relevant to the power of its lift.  No ring division occurs.
    """
    if a.ring.kind == "q":
        den, a, _ = _on_integers(a, None)
        coeffs = express_in_permutation_span(a, verify)
        return dict(zip(coeffs, over_denominator(den, coeffs.values())))
    n, r, ring = a.n, a.r, a.ring
    if n == 1 or r == 0:
        coeffs = {ix.perm_identity(n): a.data[0]} if a.data[0] != ring.zero else {}
        _check_reconstruction(a, coeffs)
        return coeffs
    if r >= n:
        return _read_off(a)
    coeffs = {}
    summands = decompose(a, None, verify=False)
    for j in range(1, n + 1):
        inner = express_in_permutation_span(eta(summands[j - 1], n, j), verify=False)
        for wbar, x in inner.items():
            w = lift_permutation(wbar, j)
            acc = ring.add(coeffs.get(w, ring.zero), x)
            coeffs[w] = acc
    coeffs = {w: x for w, x in coeffs.items() if x != ring.zero}
    if verify:
        _check_reconstruction(a, coeffs)
    return coeffs


# ---------------------------------------------------------------------------
# Kernel of the restriction map
# ---------------------------------------------------------------------------


def kernel_of_rho_dimension(n, r, ring):
    """dim ker(rho) over a field, computed two independent ways.

    The rank oracle gives dim E(n,r) - dim E(n,r-1); the free-pattern size
    must match exactly, else an error flags a bug.
    """
    from .verify import centraliser_dimension

    if not ring.is_field():
        raise ValueError("kernel dimension requires a field")
    by_rank = centraliser_dimension(n, r, ring) - centraliser_dimension(n, r - 1, ring)
    by_pattern = len(pt.build_f(n, r))
    if by_rank != by_pattern:
        raise ConstructionFailure(
            "kernel dimension mismatch: rank oracle %d, pattern %d"
            % (by_rank, by_pattern)
        )
    return by_rank
