"""Exact commutative coefficient rings and field-only linear algebra.

Three ring families are supported: the integers, the rationals, and Z/m for
any modulus m >= 2 (composite moduli included -- the constructive machinery
in this package never divides, so Z/4 and Z/6 are first-class test rings).
No floating point is used anywhere.

A :class:`Ring` is a descriptor plus arithmetic on *raw* values (int,
Fraction, or residue int).  Matrices elsewhere in the package store raw
values alongside one shared descriptor; rows handed to the elimination
engine are sparse dicts of raw values.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd, lcm


# the first twelve primes; as Miller-Rabin bases they decide primality
# exactly below 3.3 * 10**24 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m):
    """Miller-Rabin with the first twelve prime bases.

    Exact for m < 3.3 * 10**24; above that bound a composite that is a
    strong pseudoprime to all twelve bases would be taken for a prime.
    """
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class Ring:
    """Descriptor of an exact commutative coefficient ring.

    ``kind`` is one of ``"z"``, ``"q"``, ``"mod"``; modular rings carry a
    ``modulus`` >= 2.  Raw values are Python ints (integers and residues in
    ``[0, modulus)``) or ``Fraction`` (rationals, automatically in lowest
    terms with positive denominator).  Over Q, construction and membership
    run on integers over one common denominator (:func:`clear_denominators`)
    and take and return ``Fraction`` values.
    """

    __slots__ = ("kind", "modulus", "_field", "zero", "one")

    def __init__(self, kind, modulus=None):
        if kind not in ("z", "q", "mod"):
            raise ValueError("unknown ring kind: %r" % (kind,))
        if kind == "mod":
            if modulus is None or modulus < 2:
                raise ValueError("modulus must be >= 2")
        elif modulus is not None:
            raise ValueError("modulus only allowed for modular rings")
        self.kind = kind
        self.modulus = modulus
        # decided once: every elimination consults it
        self._field = kind == "q" or (kind == "mod" and _is_prime(modulus))
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def integers():
        return Ring("z")

    @staticmethod
    def rationals():
        return Ring("q")

    @staticmethod
    def modular(m):
        return Ring("mod", m)

    @staticmethod
    def parse(text):
        """Parse a ring descriptor string: "z", "q", "z/4", "z/97"."""
        t = text.strip().lower()
        if t in ("z", "q"):
            return Ring(t)
        if t.startswith("z/"):
            try:
                modulus = int(t[2:])
            except ValueError:
                pass
            else:
                return Ring.modular(modulus)
        raise ValueError("cannot parse ring descriptor %r" % (text,))

    # -- descriptor protocol ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return "Ring(%s)" % self.name

    @property
    def name(self):
        if self.kind == "mod":
            return "z/%d" % self.modulus
        return self.kind

    def is_field(self):
        return self._field

    # -- raw-value arithmetic ----------------------------------------------

    def from_int(self, m):
        """Canonical image of an ordinary integer, m |-> m * 1."""
        if self.kind == "z":
            return int(m)
        if self.kind == "q":
            return Fraction(m)
        return int(m) % self.modulus

    def add(self, a, b):
        c = a + b
        return c % self.modulus if self.kind == "mod" else c

    def sub(self, a, b):
        c = a - b
        return c % self.modulus if self.kind == "mod" else c

    def mul(self, a, b):
        c = a * b
        return c % self.modulus if self.kind == "mod" else c

    def neg(self, a):
        return (-a) % self.modulus if self.kind == "mod" else -a

    def sum(self, values):
        if self.kind == "mod":
            return sum(values) % self.modulus
        if self.kind == "q":
            return sum(values, Fraction(0))
        return sum(values)

    def reduce(self, values):
        """The list of raw values of exact integer (or, over Q, rational)
        results, reduced mod m over Z/m."""
        if self.kind == "mod":
            m = self.modulus
            return [v % m for v in values]
        return list(values)

    def sums(self, groups):
        """``[self.sum(g) for g in groups]``, with the builtin ``sum``
        mapped over the groups and one reduction per sum."""
        if self.kind == "q":
            return list(map(sum, groups, repeat(Fraction(0))))
        return self.reduce(map(sum, groups))

    # -- value serialisation ------------------------------------------------

    def format_value(self, a):
        """Integers and residues as decimal strings, rationals as "p/q"."""
        if self.kind == "q":
            if a.denominator == 1:
                return str(a.numerator)
            return "%d/%d" % (a.numerator, a.denominator)
        return str(a)

    def parse_value(self, text):
        t = text.strip()
        try:
            if self.kind != "q":
                return self.from_int(int(t))
            if "/" not in t:
                return Fraction(int(t))
            num, den = map(int, t.split("/"))
        except ValueError:
            if t.count("/") > 1:
                raise ValueError("more than one '/' in %r" % (text,)) from None
            raise ValueError("cannot parse %r as an element of %s" % (text, self.name)) from None
        if not den:
            raise ValueError("zero denominator in %r" % (text,))
        return Fraction(num, den)


def clear_denominators(values):
    """``(L, [L * v for v in values])``, L the lcm of the denominators of
    the rationals or ints ``values`` (a sequence or a dict view).  So that
    memory stays linear, L may have at most 2**28 // len(values) bits; a
    larger L is a ``ValueError`` before any value is scaled.  Integers,
    such as the rows of the duality oracles, are copied as they are.
    Otherwise each distinct value object is read once, through one table
    keyed by ``id``: the objects stay alive in ``values`` while it is
    read, and a parsed matrix's entries share a few value objects; where
    every entry is its own object the table costs more than it saves
    (``BENCH_packed_apply.json``, ``warm_calls``)."""
    if all(type(v) is int for v in values):
        return 1, list(values)
    ids = list(map(id, values))
    table = dict(zip(ids, values))
    den, cap = 1, (1 << 28) // max(len(ids), 1)
    for d in {v.denominator for v in table.values()}:
        if (den := lcm(den, d)).bit_length() > cap:
            raise ValueError("common denominator of %d values over %d bits" % (len(ids), cap))
    scaled = dict(zip(table, [v.numerator * (den // v.denominator) for v in table.values()]))
    return den, list(map(scaled.__getitem__, ids))


def over_denominator(den, ints):
    """The ``Fraction`` values x / den of the integers ``ints`` (a sequence
    or a dict view), one ``Fraction`` built per distinct integer."""
    values = {x: Fraction(x, den) for x in set(ints)}
    return list(map(values.__getitem__, ints))


# ---------------------------------------------------------------------------
# Field-only linear algebra: one sparse exact elimination engine
# ---------------------------------------------------------------------------
#
# Rows are sparse dicts var -> integer coefficient.  One right-looking loop
# eliminates them with a column -> rows index: each step stores a pivot row
# and clears its pivot var from every other remaining row.  Two rules pick
# the pivot, ties going to the smaller var, then the smaller row:
#
# - minimum fill (Markowitz 1957), for the rank: a shortest remaining row,
#   from a heap, at the entry whose column has the fewest remaining rows;
# - leftmost, for the echelon form: the smallest var left in any row, in a
#   shortest of its rows.  These are the pivot vars of the reduced row
#   echelon form, and every stored tail lies right of its pivot.
#
# Over Q both rules take a +-1 entry first.  An echelon form is a dict
# pivot var -> (lead, tail).  Over Z/p the entries are residues and every
# lead is 1; over Q pivot rows are primitive with a positive lead.  With
# lead 1 a step is a plain subtraction; any other lead takes the
# fraction-free step of Bareiss (1968), a*row - b*pivot with a/b the ratio
# of the two leads in lowest terms, and the row's content is divided out
# after it.  Fractions appear only on entry, where each row's denominators
# are cleared, and when reduced entries are read off.


def _integer_rows(ring, rows):
    """Fresh sparse integer rows: residues over Z/p, over Q each row times
    the lcm of its denominators."""
    out = []
    if ring.kind == "mod":
        p = ring.modulus
        for row in rows:
            out.append({v: x for v, c in row.items() if (x := c % p)})
        return out
    for row in rows:
        out.append({v: x for v, x in zip(row, clear_denominators(row.values())[1]) if x})
    return out


def _step_mod(p, row, f, tail):
    """row -= f * tail over Z/p, in place."""
    get = row.get
    for v, x in tail.items():
        x = (get(v, 0) - f * x) % p
        if x:
            row[v] = x
        else:
            del row[v]


def _step_q(row, c, lead, tail):
    """Replace row by a*row - b*(lead, tail) in place, where c was the
    row's entry at the pivot (already removed) and a/b = lead/c in lowest
    terms; returns a."""
    g = gcd(c, lead)
    a, b = lead // g, c // g
    if a != 1:
        for v in row:
            row[v] *= a
    get = row.get
    for v, x in tail.items():
        x = get(v, 0) - b * x
        if x:
            row[v] = x
        else:
            del row[v]
    return a


def _divide_content(row, lead=0):
    """Divide row in place by the gcd of its entries and ``lead``; returns
    that gcd (1 when there is nothing to divide)."""
    g = gcd(lead, *row.values())
    if g > 1:
        for v in row:
            row[v] //= g
        return g
    return 1


def _eliminate(ring, rows, leftmost):
    """Pivots ``{var: (lead, tail)}`` of sparse rows over a field under the
    leftmost or the minimum-fill rule; the input rows are not modified."""
    if not ring.is_field():
        raise ValueError("elimination requires a field")
    p = ring.modulus if ring.kind == "mod" else None
    rows = _integer_rows(ring, rows)
    cols = {}
    for k, row in enumerate(rows):
        for v in row:
            cols.setdefault(v, set()).add(k)
    order = iter(sorted(cols))
    heap = [] if leftmost else [(len(row), k) for k, row in enumerate(rows) if row]
    heapify(heap)
    pivots = {}
    while True:
        if leftmost:
            var = next((v for v in order if cols[v]), None)
            if var is None:
                return pivots
            k = min(cols[var], key=lambda i: (
                p is None and abs(rows[i][var]) != 1, len(rows[i]), i))
        else:
            while heap and (rows[heap[0][1]] is None
                            or len(rows[heap[0][1]]) != heap[0][0]):
                heappop(heap)  # a row pivoted or changed since it was pushed
            if not heap:
                return pivots
            k = heappop(heap)[1]
            units = p is None and [v for v, x in rows[k].items() if x in (1, -1)]
            var = min(units or rows[k], key=lambda v: (len(cols[v]), v))
        row, rows[k] = rows[k], None
        for v in row:
            cols[v].discard(k)
        lead = row.pop(var)
        if p is not None:
            if lead != 1:
                inv = pow(lead, -1, p)
                row = {v: x * inv % p for v, x in row.items()}
                lead = 1
        else:
            g = _divide_content(row, lead)
            if lead < 0:
                g = -g
                for v in row:
                    row[v] = -row[v]
            lead //= g
        pivots[var] = (lead, row)
        for i in cols.pop(var):  # every other remaining row holding var
            other = rows[i]
            c = other.pop(var)
            if p is not None:
                _step_mod(p, other, c, row)
            elif _step_q(other, c, lead, row) != 1 and other:
                _divide_content(other)
            for v in row:
                if v in other:
                    cols[v].add(i)
                else:
                    cols[v].discard(i)
            if other and not leftmost:
                heappush(heap, (len(other), i))


def sparse_echelon(ring, rows):
    """Echelon form ``{pivot var: (lead, tail)}`` of sparse rows over a
    field, pivoting on the leftmost var; the input rows are not modified."""
    return _eliminate(ring, rows, leftmost=True)


def sparse_rank(ring, rows):
    """Rank of sparse rows (dicts var -> coefficient) over a field."""
    return len(_eliminate(ring, rows, leftmost=False))


def _back_substitute(ring, pivots):
    """Bring an echelon form to reduced form in place: every tail becomes
    zero at every pivot var."""
    p = ring.modulus if ring.kind == "mod" else None
    for var in sorted(pivots, reverse=True):
        lead, row = pivots[var]
        hits = [v for v in row if v in pivots]
        if not hits:
            continue
        # the tails right of var are reduced already, so no elimination
        # brings a pivot var back
        for v2 in hits:
            c = row.pop(v2)
            if p is None:
                lead *= _step_q(row, c, *pivots[v2])
            else:
                _step_mod(p, row, c, pivots[v2][1])
        if p is None:
            lead //= _divide_content(row, lead)
        pivots[var] = (lead, row)


def _reduced_value(ring, x, lead):
    """The entry x / lead of a reduced echelon row as a ring value."""
    if ring.kind == "q":
        return Fraction(x, lead)
    return x


def _nullspace_basis(ring, pivots, n_vars):
    """One vector per free var below n_vars, in increasing order: 1 at its
    free var, 0 at the other free vars, minus the reduced echelon column
    at the pivots.  ``pivots`` must be in reduced form."""
    columns = {}
    for pv, (lead, tail) in pivots.items():
        for fv, x in tail.items():
            columns.setdefault(fv, []).append((pv, _reduced_value(ring, x, lead)))
    basis = []
    for fv in range(n_vars):
        if fv in pivots:
            continue
        vec = [ring.zero] * n_vars
        vec[fv] = ring.one
        for pv, value in columns.get(fv, ()):
            vec[pv] = ring.neg(value)
        basis.append(vec)
    return basis


def sparse_nullspace(ring, rows, n_vars):
    """Reduced basis of the right nullspace of sparse rows over a field,
    one dense vector per free variable."""
    pivots = sparse_echelon(ring, rows)
    _back_substitute(ring, pivots)
    return _nullspace_basis(ring, pivots, n_vars)
