"""Division-free extension and decomposition of invariants.

Everything here runs over an arbitrary commutative coefficient ring: a
forced entry is always a known slice sum minus already-known entries, so
only ring addition and subtraction are used.  This is what makes composite
moduli such as Z/4 and Z/6 valid test rings.

``extend`` produces the unique invariant one degree up that restricts to a
given invariant and agrees with an assignment on the free extension
pattern; ``decompose`` splits an invariant into special summands along its
last block row, one per block column, steered by an assignment on the free
decomposition pattern.  An assignment is a dict from pattern entries to
ring values; free values left unspecified default to zero.

Since only addition and subtraction occur, ``extend``, ``decompose`` and
``express_in_permutation_span`` are fixed Z-linear maps for each (n, r).
Where they recurse, they are built once per (n, r) as sparse integer
operators, one row ``(cols, coefs)`` per output, which a call applies
to its columns, packed into one integer each once per process (Kronecker
substitution), or row by row to inputs too large for the packed digits
(:func:`_apply`).  Their inputs are tower coordinates (:func:`_tower`),
each one strided sum over a row (:func:`_tower_slices`): the scalar
rho^r(a) and the entries of
each restriction rho^(r-k)(a) on the free pattern F(n, k), k = 1..r,
which fix an invariant a because E(n,k) = E(n,k-1) + F(n,k); then the
free values.  Only the extension and decomposition operators are built
by running the construction over Z on packed inputs (:func:`_build`):
the block recursion, whose inner calls apply the operators one rank or
one degree down through :func:`_extend`, the unchecked core of
``extend``, and the rank-one step, which extension from degree zero runs
directly.  A failed build is remembered by its message.  The express
operator is the extension operator's rows at the read-off positions at
r = n - 1, and below that the sparse product of the decomposition
operator and the express operator one rank down (:func:`_blockwise`).
A public call applies the operator to integers or residues and reduces
once; the packed inputs of a build take the row loop and pack nothing.
Where nothing recurses there is no operator: extension at n <= r
and decomposition at n <= r + 1 only copy, and from degree n - 1 on the
coefficients of the permutation span are read off.  A process pays each build on its first
call at an (n, r), so a process that makes one call pays all of them;
the builds it needs are those of the cells below.

Every public construction is verified before it is returned.  ``extend``
checks its output's membership, restriction and free values; ``decompose``
checks what it builds, the excisions one rank down, one membership check
each, then that their inflations add up and the free values, since theta
carries E(n-1, r) onto the special invariants of its tag; in another
block row or column only the input is relabelled, and theta inflates each
excision straight into the basis.  A verified output is unique, so a
fault in an operator or in a read-off position surfaces as
:class:`ConstructionFailure`, never as a wrong answer; a failed build names the operation and the (n, r).  A non-invariant input
is user error: ``express_in_permutation_span`` refuses it with
:class:`NotInSpanError` from its one reconstruction check, the other
public entries with :class:`NotInvariantError` from the invariance gate
:func:`.invariants.require_invariant` before anything is built; ``extend``
and ``decompose`` refuse a foreign key with a ``ValueError`` before that
gate, over every ring.  Over Q each public entry runs, and verifies, on
integers over one common denominator (:func:`.rings.clear_denominators`,
which bounds it), after ``extend`` and ``decompose`` refuse an input that
fails H on its values as they are; values stay ``Fraction``.  A matrix
with n < 1 is a ``ValueError``.

The restriction b pins one copy rule, built once per (n, r) as a rank
table: an entry at a value-type mismatch is zero, and any other entry
(i, j) equals b(i - beta, j - beta), beta the first place of i whose
value repeats an earlier one.  Only injective-by-injective entries are
left open, and at n = r even those follow the rule with beta the last
place (see :func:`_extend_direct`), which makes the extension unique for
n <= r.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, partial
from itertools import compress, count, repeat
from operator import mul

from . import indices as ix
from . import patterns as pt
from .invariants import (
    _h_mask,
    _restrict,
    block,
    check_membership,
    eta,
    is_invariant,
    require_invariant,
    require_positive_n,
    theta,
    zero_rowcol_implies_special,
)
from .rings import Ring, clear_denominators, over_denominator
from .tensor import TensorMatrix, matrix_sum, phi_sum

_Z = Ring.integers()


class ConstructionFailure(RuntimeError):
    """A forced slice closed with a mismatched sum, or a verification of a
    constructed invariant failed."""


def _on_integers(a, f, gate=False):
    """Over Q: ``(L, L * a over Z, L * f)``, L one common denominator.
    With ``gate``, an ``a`` that fails H is refused by the invariance gate
    on its values as they are, before any conversion."""
    if gate and any(compress(a.data, _h_mask(a.n, a.r))):
        require_invariant(a)
    f = dict(f or {})
    den, ints = clear_denominators(list(f.values()) + a.data)
    return den, TensorMatrix(a.n, a.r, _Z, ints[len(f) :]), dict(zip(f, ints))


def _over(den, a):
    """The matrix a / den over Q of a matrix over Z."""
    return TensorMatrix(a.n, a.r, Ring.rationals(), over_denominator(den, a.data))


_POISON = object()


# ---------------------------------------------------------------------------
# Tower coordinates and the per-(n, r) integer operators
# ---------------------------------------------------------------------------

# A build runs the construction on _RUN_INPUTS inputs at a time, input k of
# a run set to 2^(16 k): every output is then the sum of its integer
# coefficients times those powers, and they are read off as signed base
# 2^16 digits, one "h" array item each (Kronecker substitution).  A
# coefficient must lie within 2^15 of zero, or it reads wrong and fails
# verification; the largest is 5 up to (5,3) and 20 at (8,2).
_RUN_INPUTS = 128
_DIGIT = 16


@lru_cache(maxsize=None)
def _tower_slices(n, r):
    """The slice of ``data`` that sums to each tower coordinate of degree r:
    row 0 for rho^r(a), and for the entry (u, v) of rho^(r-k)(a) on F(n, k)
    the columns (t, v), t in I(n, r-k), of row (1...1, u)."""
    size, rank = n**r, partial(ix.index_rank, n)
    return (slice(0, size),) + tuple(
        slice(rank(u) * size + rank(v), (rank(u) + 1) * size, n**k)
        for k in range(1, min(r, n - 1) + 1) for u, v in pt.build_f(n, k).entries
    )


def _tower(a):
    """The tower coordinates of an invariant a of degree r: the scalar
    rho^r(a), then the entries of rho^(r-k)(a) on F(n, k) for k = 1..r.

    Extending rho(a) by the values of a on F(n, r) gives a back, so these
    dim E(n, r) values fix a."""
    return a.ring.sums(map(a.data.__getitem__, _tower_slices(a.n, a.r)))


@lru_cache(maxsize=None)
def _live_table(n, r):
    """The orbits of :func:`indices.orbit_table` off the value-type
    mismatches: their lead positions, and for every orbit 1 + its index
    among them, or 0 for an orbit of mismatches."""
    _, leads = ix.orbit_table(n, r)
    mask = _h_mask(n, r)
    slot = count(1)
    return (
        array("I", (p for p in leads if not mask[p])),
        array("I", (0 if mask[p] else next(slot) for p in leads)),
    )


def _from_live(ring, n, r, values):
    """The matrix over I(n,r) with ``values`` on the live orbits, in the
    order of :func:`_live_table`, and zero on the mismatches."""
    orbit_of, _ = ix.orbit_table(n, r)
    window = [ring.zero] + values
    per_orbit = list(map(window.__getitem__, _live_table(n, r)[1]))
    return TensorMatrix(n, r, ring, list(map(per_orbit.__getitem__, orbit_of)))


# A call applies an operator to its packed columns: column c is the integer
# sum of coef(k, c) 2^(32 k) over the rows k, so sum(x_c column_c) holds
# output k as its k-th signed base 2^32 digit whenever every output lies
# within 2^31 of zero, which max |x_c| times the largest row L1 norm bounds
# (Kronecker substitution).  The columns are packed on the second call
# within that bound, so a process that applies an operator once pays
# nothing, and kept; larger inputs, such as a build's packed ones, take
# the row loop.  At (5,3) the extension operator applies in 0.19 ms
# packed against 1.48 ms row by row; 16-bit digits would halve that, but
# only for inputs under 178 in absolute value.  An operator less than
# 1/_SPARSE full is never packed: at (8,2) the extension operator, 2%
# full, applies in 1.9 ms packed against 2.1 ms, and packing it takes
# 16.5 ms and 3.5 MB (BENCH_packed_apply.json, apply_ms).
_PACK = 32
_SPARSE = 32


class _Operator(tuple):
    """An operator's rows ``(cols, coefs)``, with its largest row L1 norm,
    whether it is full enough to pack, its calls within the digit bound
    and, from the second, its packed columns (:func:`_apply`)."""

    def __init__(self, rows):
        self.norm = max((sum(map(abs, coefs)) for _, coefs in self), default=0)
        self.width = 1 + max((max(cols) for cols, _ in self if cols), default=-1)
        self.dense = len(self) * self.width <= _SPARSE * sum(len(cols) for cols, _ in self)
        self.calls = 0
        self.packed = None

    def pack(self):
        """``(columns, bias)``, made in O(nnz + rows cols): the digits of
        each column, biased by 2^31 to be nonnegative, are read as one
        integer by ``int.from_bytes``, and the bias is taken off."""
        height, half = len(self), 1 << (_PACK - 1)
        digits = array("I", [half]) * (self.width * height)
        for k, (cols, coefs) in enumerate(self):
            for c, a in zip(cols, coefs):
                digits[c * height + k] = half + a
        if sys.byteorder == "big":
            digits.byteswap()
        # 2^31 in each of the height digits
        bias = ((1 << _PACK * height) - 1) // ((1 << _PACK) - 1) << (_PACK - 1)
        raw, step = memoryview(digits).cast("B"), height * _PACK // 8
        columns = [int.from_bytes(raw[c : c + step], "little") - bias
                   for c in range(0, self.width * step, step)]
        self.packed = columns, bias
        return self.packed


def _apply(rows, xs):
    """Output k is the sum of coefs[t] * xs[cols[t]] over row k, (cols, coefs):
    by the packed columns of an :class:`_Operator` full enough to pack,
    from its second call on whose inputs are integers, not all zero, and
    whose outputs all lie within 2^31 of zero, else row by row.  A build
    makes all-zero inputs (at (8,2), 29 of them), which pack nothing."""
    if (isinstance(rows, _Operator) and rows.dense and set(map(type, xs)) <= {int}
            and 0 < max(map(abs, xs), default=0) * rows.norm < 1 << (_PACK - 1)):
        rows.calls += 1
        if rows.calls > 1:
            columns, bias = rows.packed or rows.pack()
            # the biased digits are nonnegative; flipping the bias bit back
            # leaves each one in two's complement
            total = sum(map(mul, xs, columns)) + bias
            digits = array("i", (total ^ bias).to_bytes(len(rows) * _PACK // 8, "little"))
            if sys.byteorder == "big":
                digits.byteswap()
            return digits
    get = xs.__getitem__
    return [sum(map(mul, coefs, map(get, cols))) for cols, coefs in rows]


# (operation, n, r) -> the messages of its failed build and of the run that
# failed it; a kept traceback would keep the run's packed matrices alive
_FAILED_BUILDS = {}


def _build(name, n, r, width, run):
    """The operator of ``run``, a Z-linear map from ``width`` integers to a
    list of integers, read off runs of ``run`` on packed inputs: one row
    ``(cols, coefs)`` per output.

    A run that raises ConstructionFailure fails the build, with the
    operation and the (n, r) named in front of the run's message; a
    build that failed before fails again with that message and no run."""
    if (name, n, r) in _FAILED_BUILDS:
        message, cause = _FAILED_BUILDS[name, n, r]
        raise ConstructionFailure(message) from ConstructionFailure(cause)
    rows = None
    for start in range(0, width, _RUN_INPUTS):
        batch = min(_RUN_INPUTS, width - start)
        xs = [0] * width
        xs[start : start + batch] = [1 << (_DIGIT * k) for k in range(batch)]
        try:
            outs = run(xs)
        except ConstructionFailure as exc:
            message = "cannot build the %s operator at (n, r) = (%d, %d): %s" % (name, n, r, exc)
            _FAILED_BUILDS[name, n, r] = message, str(exc)
            raise ConstructionFailure(message) from exc
        if rows is None:
            rows = [(array("I"), array("i")) for _ in outs]
        # adding 2^15 to every digit makes them all nonnegative; flipping
        # that bit back leaves each one in two's complement
        bias = sum(1 << (_DIGIT * k + _DIGIT - 1) for k in range(batch))
        for (cols, coefs), v in zip(rows, outs):
            if v:
                digits = array("h", ((v + bias) ^ bias).to_bytes(2 * batch, "little"))
                if sys.byteorder == "big":
                    digits.byteswap()
                cols.extend(compress(range(start, start + batch), digits))
                coefs.extend(compress(digits, digits))
    return _Operator(rows)


def _synthesise(ring, n, r, xs):
    """The invariant of degree r < n whose tower coordinates are ``xs``."""
    if r >= 2:
        return _from_live(ring, n, r, ring.reduce(_apply(_extend_operator(n, r), xs)))
    a = TensorMatrix.scalar(n, ring, xs[0])
    if r == 1:  # O(n^2) directly; the operator would read (n-1)^2 + 1 inputs
        a = _extend_rank_one(a, dict(zip(pt.build_f(n, 1).entries, xs[1:])))
    return a


@lru_cache(maxsize=None)
def _extend_operator(n, r):
    """For n > r >= 1: the tower coordinates of b in E(n, r-1), then the
    values of f on F(n, r), to the values of extend(b, f) on the live
    orbits; together, the tower coordinates of extend(b, f).  At r = 1
    only the express operator at (2, 1) reads it."""
    k = len(_tower_slices(n, r - 1))
    entries = pt.build_f(n, r).entries
    construct = _extend_rank_one if r == 1 else _extend_recursive

    def run(xs):
        a = construct(_synthesise(_Z, n, r - 1, xs[:k]), dict(zip(entries, xs[k:])))
        return list(map(a.data.__getitem__, _live_table(n, r)[0]))

    return _build("extend", n, r, k + len(entries), run)


@lru_cache(maxsize=None)
def _decompose_operator(n, r):
    """For n > r + 1: the tower coordinates of a in E(n, r), then the values
    of f on D(n, r), to the tower coordinates in E(n-1, r) of eta(A(j), n, j)
    for the summands A(1), ..., A(n) of decompose(a, f)."""
    k = len(_tower_slices(n, r))
    entries = pt.build_d(n, r).entries

    def run(xs):
        parts = _decompose_step(_synthesise(_Z, n, r, xs[:k]), dict(zip(entries, xs[k:])))
        return [x for c in parts for x in _tower(c)]

    return _build("decompose", n, r, k + len(entries), run)


@lru_cache(maxsize=None)
def _express_operator(n, r):
    """For 1 <= r < n: the tower coordinates of a in E(n, r) to the
    coefficients of express_in_permutation_span(a), in the order of
    :func:`_express_order`, zeros included.

    At r = n - 1 they are read off an extension, so the operator is the
    extension operator's rows at the live orbits of the read-off positions.
    Below, the recursion expresses each summand's excision one rank down
    and lifts it, so the operator is this one a rank down, block by block,
    after the decomposition operator with its free values at zero."""
    if r == n - 1:
        orbit_of, _ = ix.orbit_table(n, r)
        slot, rows = _live_table(n, r)[1], _extend_operator(n, r)
        return _Operator(rows[slot[orbit_of[p]] - 1] for p in _read_off_positions(n, r))
    return _blockwise(_express_operator(n - 1, r), _decompose_operator(n, r), n,
                      len(_tower_slices(n - 1, r)), len(_tower_slices(n, r)))


def _blockwise(inner, outer, blocks, width, cut):
    """The operator that applies ``outer`` to inputs zero from ``cut`` on,
    then ``inner`` to each of its ``blocks`` runs of ``width`` outputs, and
    lists the results block by block: a sparse product, row by row."""
    rows = []
    for base in range(0, blocks * width, width):
        for inner_cols, inner_coefs in inner:
            acc = [0] * cut
            for t, x in zip(inner_cols, inner_coefs):
                for c, y in zip(*outer[base + t]):
                    if c < cut:
                        acc[c] += x * y
            live = [c for c in range(cut) if acc[c]]
            rows.append((array("I", live), array("i", map(acc.__getitem__, live))))
    return _Operator(rows)


# ---------------------------------------------------------------------------
# Initialisation: entries forced by the degree below
# ---------------------------------------------------------------------------


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


def initialise(b):
    """Fill every entry of the degree r+1 matrix that the restriction pins.

    Value-type mismatches are zero; an entry whose row has a repeated value
    copies the restriction entry at the pair with one duplicate place
    dropped.  Entries with both indices injective stay ``None``.  A
    non-invariant ``b`` is refused with :class:`NotInvariantError`.
    """
    require_invariant(b)
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


def extend(b, f=None):
    """The unique extension of an invariant with the given free values.

    ``b`` lives in degree r-1; ``f`` maps entries of the free pattern for
    degree r (pairs of injective multi-indices) to ring values, defaulting
    to zero.  A non-invariant ``b`` is refused with
    :class:`NotInvariantError` before anything is built, and the result is
    verified to be an invariant that restricts to ``b`` and returns the
    pattern values verbatim.
    """
    require_positive_n(b)
    f = dict(f or {})
    allowed = set(pt.build_f(b.n, b.r + 1).entries)
    for key in f:
        if key not in allowed:
            raise ValueError("assignment key %r is not a free-pattern entry" % (key,))
    den = None
    if b.ring.kind == "q":
        den, b, f = _on_integers(b, f, gate=True)
    require_invariant(b)
    a = _extend(b, f)
    _verify_extension(a, b, f)
    return a if den is None else _over(den, a)


def _extend(b, f):
    """The construction behind :func:`extend`, checking nothing: ``b`` an
    invariant over Z or Z/m, ``f`` raw values on the free pattern.  The
    block recursion calls it inside operator builds."""
    ring, n, r = b.ring, b.n, b.r + 1
    if n <= r:
        return _extend_direct(b)
    entries = pt.build_f(n, r).entries
    return _synthesise(ring, n, r, _tower(b) + [f.get(key, ring.zero) for key in entries])


def _verify_extension(a, b, f):
    report = check_membership(a)
    if not report.in_E:
        raise ConstructionFailure("extension fails membership: %r" % (report.first_violation,))
    if _restrict(a) != b:
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
    """Extension for n > r >= 2 via the block-row construction; it builds
    :func:`_extend_operator` and runs nowhere else.

    The free values on the block-row part of the pattern translate into a
    decomposition of ``b``, read as its summands' excisions; the remaining
    free values are hit by choosing the per-block inflation assignments
    block by block, assigning each shared pattern position to the largest
    block containing it and subtracting the contributions of earlier
    blocks.
    """
    ring = b.ring
    n, r = b.n, b.r + 1
    f_d = {}
    for (j, p, q) in pt.build_d(n, r - 1).entries:
        key = ((n,) + p, (j,) + q)
        f_d[(j, p, q)] = f.get(key, ring.zero)
    blocks = _parts(b, f_d)

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
        parts.append(theta(_extend(blocks[j - 1], g), n, j))
    return matrix_sum(parts)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def decompose(a, f=None, basis="last-row"):
    """Split an invariant into special summands along a block row or column.

    For the default last block row the summands ``[A(1), ..., A(n)]`` have
    the j-th one special with tag (n, j); with ``basis="row:i"`` the tags
    are (i, j), and with ``basis="col:j"`` the k-th summand is special with
    tag (k, j).  The summands sum to ``a``, restrict blockwise to the
    blocks of ``a``, and agree with ``f`` on the free decomposition
    pattern carried to the basis by :class:`patterns.Basis`; a key outside
    that pattern is a ``ValueError`` that names it as passed.  A
    non-invariant ``a`` is refused with :class:`NotInvariantError` before
    anything is built, and the summands are verified on their excisions.
    """
    require_positive_n(a)
    based = pt.parse_basis(basis, a.n)
    if a.r < 1:
        raise ValueError("decomposition needs degree >= 1")
    f = dict(f or {})
    if f:
        allowed = set(based.pattern(pt.build_d(a.n, a.r)).entries)
        for key in f:
            if key not in allowed:
                raise ValueError("assignment key %r is not a decomposition-pattern entry" % (key,))
    den = None
    if a.ring.kind == "q":
        den, a, f = _on_integers(a, f, gate=True)
    require_invariant(a)
    summands = _decompose_in(a, f, based)
    return summands if den is None else [_over(den, s) for s in summands]


def _decompose_in(a, f, based):
    """The verified summands of a in the basis ``based``: the excisions
    of ``based.matrix(a)`` along its last block row, each inflated
    straight into the basis and checked against ``a`` and ``f``."""
    n = a.n
    if n == 1:  # the one summand, special with tag (1, 1), is a itself
        return [a]
    parts = _parts(based.matrix(a), {based.key(key): v for key, v in f.items()})
    # theta(c, n, j) is special, in E(n, r) exactly when c is in E(n-1, r),
    # and, once the summands add up to a, restricts to block (n, j) of a;
    # carried to the basis, it keeps all three with the basis tag
    for j, c in enumerate(parts, start=1):
        if not is_invariant(c):
            raise ConstructionFailure("excision %d fails membership" % j)
    summands = [theta(parts[j - 1], n, j, based.tau, based.transpose)
                for j in map(based.value, range(1, n + 1))]
    if matrix_sum(summands) != a:
        raise ConstructionFailure("decomposition summands do not add up")
    for (k, p, q), value in f.items():
        if summands[k - 1].get(p, q) != value:
            raise ConstructionFailure(
                "decomposition free entry %r not returned verbatim" % ((k, p, q),)
            )
    return summands


def _parts(a, f):
    """The excisions eta(A(j), n, j), j = 1..n, of the summands of the
    decomposition of an invariant with n >= 2 along the last block row:
    for n <= r + 1 the step itself, which only copies (D(n, r) is empty),
    else from :func:`_decompose_operator`."""
    n, r, ring = a.n, a.r, a.ring
    if n <= r + 1:
        return _decompose_step(a, f)
    xs = _tower(a) + [f.get(key, ring.zero) for key in pt.build_d(n, r).entries]
    ys = ring.reduce(_apply(_decompose_operator(n, r), xs))
    k = len(_tower_slices(n - 1, r))
    return [_synthesise(ring, n - 1, r, ys[j : j + k]) for j in range(0, n * k, k)]


def _decompose_step(a, f):
    """The excisions eta(A(j), n, j), j = 1..n, of the summands of the
    decomposition of an invariant with n >= 2 along the last block row, by
    the block recursion.  For n <= r + 1 each excision is a block, excised
    and extended by the copy rule; otherwise the step builds
    :func:`_decompose_operator` and runs nowhere else.  A summand A(j) is
    theta of its excision."""
    n, r, ring = a.n, a.r, a.ring
    blocks_of_a = [block(a, n, j) for j in range(1, n + 1)]
    if n <= r + 1:
        return [_extend_direct(eta(blocks_of_a[j - 1], n, j)) for j in range(1, n + 1)]
    parts = [None] * n
    residual = a
    for j in range(n, 1, -1):
        if j > r + 1:  # a full per-block pattern
            g = {y: f.get((j,) + x, ring.zero) for x, y in pt.per_block_labels(n, r, j)}
        else:
            g = _replay_forced_assignment(a, blocks_of_a[j - 1], residual, j, f)
        parts[j - 1] = _extend(eta(blocks_of_a[j - 1], n, j), g)
        residual = residual.sub(theta(parts[j - 1], n, j))
    if not zero_rowcol_implies_special(residual, n, 1):
        raise ConstructionFailure(
            "final decomposition residual has a nonzero off block"
        )
    parts[0] = eta(residual, n, 1)
    return parts


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
                for other in colouring.slices[alpha, ctx]:
                    if other == v:
                        continue
                    other = vals[other]
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


# ---------------------------------------------------------------------------
# Prescribed rows / columns
# ---------------------------------------------------------------------------


class IncompatiblePrescription(ValueError):
    pass


def extend_with_prescription(b, prescribed, basis="last-row"):
    """Some extension agreeing with fully prescribed lines.

    ``prescribed`` maps full row indices inside the basis block row
    (default the last one) to complete row vectors over I(n,r); with
    ``basis="col:j"`` it maps column indices inside block column j to
    column vectors.  The free pattern entries lying inside the prescribed
    lines are read off verbatim, the remaining free entries default to
    zero, and the construction is checked against the prescription
    afterwards; any mismatch means the prescription was not compatible.
    An index that is not r values in 1..n, or lies outside the basis
    line, is refused with a ``ValueError`` before anything is built.
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
        if not (isinstance(u, tuple) and len(u) == r
                and all(isinstance(v, int) and 1 <= v <= n for v in u)):
            raise ValueError("prescribed index %r is not %d values in 1..%d" % (u, r, n))
        u = based.index(u)
        if u[0] != n:
            raise ValueError("prescribed rows must lie in the basis block row")
        vector = list(vector)
        if len(vector) != n**r:
            raise ValueError("prescribed row has wrong length")
        vector = based.vector(vector, r)
        norm[u] = vector
        for v in cols_by_row.get(u, ()):
            f[(u, v)] = vector[ix.index_rank(n, v)]
    a = extend(based.matrix(b), f)
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


@lru_cache(maxsize=None)
def _read_off_positions(n, r):
    """For r >= n - 1: the entry x_w is read at, for each w of
    :func:`_express_order`.  The column 1, 2, ..., min(n, r), padded with
    ones, meets the power of w in the row w of it alone, since the first
    n - 1 values of a permutation fix it; that row holds x_w.  At r = 0
    the one entry is x_w for w the identity."""
    m = min(n, r)
    col = tuple(range(1, m + 1)) + (1,) * (r - m)
    rank = ix.index_rank(n, col)
    return array("I", (
        ix.index_rank(n, ix.act_left(w, col)) * n**r + rank for w in _express_order(n, r)
    ))


@lru_cache(maxsize=None)
def _live_reads(n, r):
    """For 1 <= r < n - 1: for each live orbit of :func:`_live_table`, with
    lead (i, j), the indices in :func:`_express_order` of the w with
    w.j = i, whose phi(w) holds a one at (i, j)."""
    size, reads = n**r, []
    by_column = {}  # lead column -> {lead row: live orbit}
    for k, p in enumerate(_live_table(n, r)[0]):
        reads.append(array("I"))
        by_column.setdefault(p % size, {})[p // size] = k
    for t, w in enumerate(_express_order(n, r)):
        image = ix.act_ranks(w, r)
        for j, orbits in by_column.items():
            k = orbits.get(image[j])
            if k is not None:
                reads[k].append(t)
    return tuple(reads)


def _check_reconstruction(a, values):
    """Rebuild the sum of x_w phi(w), x_w = values[t] for w the t-th
    permutation of :func:`_express_order`, and compare it with ``a``.

    Below degree n - 1 the sum is rebuilt on the live orbits: every phi(w)
    is zero at a value-type mismatch and commutes with the place
    permutations, so the sum is the matrix of :func:`_from_live` whose
    value on an orbit is its entry at the lead, the sum of x_w over the w
    of :func:`_live_reads`.  Elsewhere it is :func:`.tensor.phi_sum`."""
    n, r, ring = a.n, a.r, a.ring
    if 1 <= r < n - 1:
        get = values.__getitem__
        rebuilt = _from_live(ring, n, r, ring.sums(map(map, repeat(get), _live_reads(n, r))))
    else:
        zero = ring.zero
        rebuilt = phi_sum({w: x for w, x in zip(_express_order(n, r), values) if x != zero},
                          n, r, ring)
    if rebuilt.data != a.data:
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


def express_in_permutation_span(a):
    """Exact coefficients expressing an invariant in the span of the
    Kronecker powers of permutation matrices, over any ring.

    From degree n - 1 on, where the first n - 1 values of a permutation
    fix it, the coefficients are read off directly
    (:func:`_read_off_positions`).  Below that the invariant is decomposed
    into special summands whose excisions live one rank lower; their
    recursive expressions lift back through the inflation, which sends the
    power of a permutation fixing nothing relevant to the power of its
    lift, and :func:`_express_operator` applies that map.  No ring
    division occurs.  The coefficients are nonzero and listed in the order
    of :func:`_express_order`.  Either way one exact reconstruction checks
    them (:func:`_check_reconstruction`, on the live orbits where the
    operator applies): a matrix outside the span raises
    :class:`NotInSpanError`, an invariant that fails raises
    :class:`ConstructionFailure`.
    """
    require_positive_n(a)
    if a.ring.kind == "q":
        den, a, _ = _on_integers(a, None)
        coeffs = express_in_permutation_span(a)
        return dict(zip(coeffs, over_denominator(den, coeffs.values())))
    n, r, ring = a.n, a.r, a.ring
    if r == 0 or r >= n - 1:
        values = list(map(a.data.__getitem__, _read_off_positions(n, r)))
    else:
        values = ring.reduce(_apply(_express_operator(n, r), _tower(a)))
    coeffs = {w: x for w, x in zip(_express_order(n, r), values) if x != ring.zero}
    try:
        _check_reconstruction(a, values)
    except NotInSpanError:
        if is_invariant(a):
            raise ConstructionFailure(
                "the permutation-span coefficients of an invariant do not rebuild it"
            ) from None
        raise
    return coeffs


@lru_cache(maxsize=None)
def _express_order(n, r):
    """The permutations of {1..n} in the order the recursion meets them:
    the lexicographic read-off order for r >= n, else block j = 1..n in
    turn, each the order one rank down lifted by :func:`lift_permutation`."""
    if n == 1 or r == 0:
        return (ix.perm_identity(n),)
    if r >= n:
        return tuple(ix.all_permutations(n))
    return tuple(
        lift_permutation(wbar, j) for j in range(1, n + 1) for wbar in _express_order(n - 1, r)
    )
