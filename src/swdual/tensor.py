"""Dense matrices on tensor space and the two representations.

A :class:`TensorMatrix` is an n^r x n^r matrix over a coefficient ring with
rows and columns indexed by I(n,r) in lexicographic order.  The entry
accessor follows the row-superscript convention: ``A.get(i, j)`` is the
coefficient of row ``i`` in the image of basis column ``j``.  ``psi(d)``
is the matrix whose (i, j) entry is the diagram scalar of d (row = top
row assignment, column = bottom row assignment).
"""

from __future__ import annotations

import operator
from itertools import chain

from . import indices as ix
from .rings import Ring


class ShapeMismatchError(ValueError):
    pass


class TensorMatrix:
    """Dense exact matrix indexed by I(n,r) x I(n,r).

    ``data`` is a flat row-major list of raw ring values.  Instances are
    treated as immutable after construction; all operations return new
    matrices.
    """

    __slots__ = ("n", "r", "ring", "size", "data")

    def __init__(self, n, r, ring, data=None):
        self.n = n
        self.r = r
        self.ring = ring
        self.size = n**r
        if data is None:
            self.data = [ring.zero] * (self.size * self.size)
        else:
            if len(data) != self.size * self.size:
                raise ShapeMismatchError("data length does not match n^r")
            self.data = data

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n, r, ring):
        return _ones_at(n, r, ring, range(0, n ** (2 * r), n**r + 1))

    @staticmethod
    def scalar(n, ring, value):
        """The unique element of the degree-zero algebra, a 1x1 matrix."""
        return TensorMatrix(n, 0, ring, [value])

    # -- entry access ---------------------------------------------------------

    def rank_of(self, idx):
        return ix.index_rank(self.n, idx)

    def get(self, i, j):
        return self.data[self.rank_of(i) * self.size + self.rank_of(j)]

    def row(self, i):
        ri = self.rank_of(i)
        return self.data[ri * self.size : (ri + 1) * self.size]

    # -- structure ------------------------------------------------------------

    def _check_same_shape(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if (self.n, self.r) != (other.n, other.r):
            raise ShapeMismatchError("shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, TensorMatrix)
            and (self.n, self.r) == (other.n, other.r)
            and self.ring == other.ring
            and self.data == other.data
        )

    __hash__ = None  # mutable payload: matrices are compared, never hashed

    def is_zero(self):
        zero = self.ring.zero
        return all(v == zero for v in self.data)

    def add(self, other):
        self._check_same_shape(other)
        data = self.ring.reduce(map(operator.add, self.data, other.data))
        return TensorMatrix(self.n, self.r, self.ring, data)

    def sub(self, other):
        self._check_same_shape(other)
        data = self.ring.reduce(map(operator.sub, self.data, other.data))
        return TensorMatrix(self.n, self.r, self.ring, data)

    def transpose(self):
        size, data = self.size, self.data
        out = list(chain.from_iterable(data[j::size] for j in range(size)))
        return TensorMatrix(self.n, self.r, self.ring, out)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)


def matmul(a, b):
    a._check_same_shape(b)
    ring = a.ring
    size = a.size
    zero = ring.zero
    add, mul = ring.add, ring.mul
    out = [zero] * (size * size)
    bd = b.data
    for i in range(size):
        arow = a.data[i * size : (i + 1) * size]
        orow = out
        base = i * size
        for k in range(size):
            aik = arow[k]
            if aik == zero:
                continue
            brow = bd[k * size : (k + 1) * size]
            if aik == ring.one:
                for j in range(size):
                    v = brow[j]
                    if v != zero:
                        orow[base + j] = add(orow[base + j], v)
            else:
                for j in range(size):
                    v = brow[j]
                    if v != zero:
                        orow[base + j] = add(orow[base + j], mul(aik, v))
    return TensorMatrix(a.n, a.r, ring, out)


def gather(a, n, rows, cols):
    """The matrix over I(n, a.r) whose entry at ranks (i, j) is the entry
    of ``a`` at ranks (rows[i], cols[j])."""
    size, data = a.size, a.data
    out = []
    for ri in rows:
        row = data[ri * size : (ri + 1) * size]
        out.extend(map(row.__getitem__, cols))
    return TensorMatrix(n, a.r, a.ring, out)


def matrix_sum(matrices):
    """Entrywise sum of same-shape matrices, one ring reduction per entry."""
    first = matrices[0]
    for m in matrices[1:]:
        first._check_same_shape(m)
    data = first.ring.sums(zip(*(m.data for m in matrices)))
    return TensorMatrix(first.n, first.r, first.ring, data)


# ---------------------------------------------------------------------------
# The two representations
# ---------------------------------------------------------------------------


def psi_positions(d, n, r):
    """Flat positions of the ones of psi(d) on I(n,r) x I(n,r), d of rank
    at least r, with the value n at every place from r on.

    Top place a < r weighs n^(r-1-a) n^r and bottom place a < r weighs
    n^(r-1-a); a block of weight W (the sum over its vertices) with value
    t + 1 adds t W.  A block holding a place >= r takes the value n.
    """
    size = n**r
    positions = [0]
    for block in d.blocks:
        weight, pinned = 0, False
        for v in block:
            place = v % d.r
            if place >= r:
                pinned = True
            else:
                weight += n ** (r - 1 - place) * (size if v < d.r else 1)
        values = [n - 1] if pinned else range(n)
        positions = [p + t * weight for p in positions for t in values]
    return positions


def psi(d, n, ring):
    """Matrix of a diagram: entry (i, j) is 1 when the assignment sending
    the top row to i and the bottom row to j is constant on every block."""
    return _ones_at(n, d.r, ring, psi_positions(d, n, d.r))


def _ones_at(n, r, ring, positions):
    m = TensorMatrix(n, r, ring)
    one = ring.one
    for pos in positions:
        m.data[pos] = one
    return m


def phi(w, n, r, ring):
    """The r-th Kronecker power of P(w), computed as a basis permutation."""
    if len(w) != n:
        raise ValueError("permutation size mismatch")
    return phi_sum({w: ring.one}, n, r, ring)


def phi_sum(coeffs, n, r, ring):
    """The sum of x_w phi(w) over the items (w, x_w) of ``coeffs``, built
    entry by entry: phi(w) holds a one at (w.j, j) for each column j."""
    m = TensorMatrix(n, r, ring)
    data, size, add = m.data, m.size, ring.add
    for w, x in coeffs.items():
        for rj, ri in enumerate(ix.act_ranks(w, r)):
            pos = ri * size + rj
            data[pos] = add(data[pos], x)
    return m


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------


def matrix_to_json(m):
    """The JSON document of a matrix, its entries as strings row by row.
    Each distinct value is formatted once, through one table: keyed by the
    value over Z and Z/m, whose ints hash in C, and over Q by ``id``,
    since a ``Fraction`` hashes in Python; the objects stay alive in
    ``m.data`` while it is read, and the entries of a matrix often share
    a few value objects."""
    size = m.size
    keys = list(map(id, m.data)) if m.ring.kind == "q" else m.data
    text = dict(zip(keys, m.data))
    text.update(zip(text, map(m.ring.format_value, text.values())))
    entries = list(map(text.__getitem__, keys))
    rows = [entries[i * size : (i + 1) * size] for i in range(size)]
    return {"n": m.n, "r": m.r, "ring": m.ring.name, "rows": rows}


def matrix_from_json(doc, unsafe_large=False):
    """The matrix of a JSON document: an object with a string "ring" and
    "rows" a list of lists of strings, else a ValueError.  A square of
    more than MAX_HELD entries is refused with CapExceeded, before any
    entry is read, unless ``unsafe_large`` is set."""
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ShapeMismatchError('a matrix needs "rows", a list of lists')
    if len(rows) ** 2 > ix.MAX_HELD and not unsafe_large:
        raise ix.CapExceeded(
            "matrix has %d rows, %d entries, more than the default cap %d; pass "
            "--unsafe-large (unsafe_large=True) to override"
            % (len(rows), len(rows) ** 2, ix.MAX_HELD)
        )
    if not isinstance(doc.get("ring"), str):
        raise ValueError('a matrix needs "ring", a string')
    ring = Ring.parse(doc["ring"])
    for key in ("n", "r"):
        if key not in doc:
            raise ShapeMismatchError('a matrix needs "%s", an integer' % key)
    n, r = doc["n"], doc["r"]
    if not _is_power(len(rows), n, r) or any(len(row) != len(rows) for row in rows):
        raise ShapeMismatchError("row data does not match n^r")
    # each distinct entry is parsed once, in order of first appearance, so
    # the first bad entry in row-major order decides the message
    entries = list(chain.from_iterable(rows))
    try:
        distinct = dict.fromkeys(entries)
    except TypeError:  # an unhashable list or object is no string either: None stands in
        distinct = dict.fromkeys(v if v.__hash__ else None for v in entries)
    try:
        values = {v: ring.parse_value(v) for v in distinct}
    except AttributeError:  # parse_value strips its text; no other JSON value has strip
        raise ValueError("matrix entries must be strings") from None
    return TensorMatrix(n, r, ring, list(map(values.__getitem__, entries)))


def _is_power(size, n, r):
    """size == n**r, without building n**r when r is large."""
    if not (type(n) is int and type(r) is int and n >= 1 and r >= 0):  # not bool
        return False
    return power_within(n, r, size) == size


def power_within(n, r, bound):
    """n**r if its absolute value is at most ``bound``, else None.

    The power is built one factor at a time and abandoned as soon as it
    passes ``bound``, so a huge exponent costs nothing.
    """
    if abs(n) <= 1:
        return n**r
    power = 1
    for _ in range(r):
        power *= n
        if abs(power) > bound:
            return None
    return power
