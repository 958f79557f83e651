"""Exact commutative coefficient rings and field-only linear algebra.

Three ring families are supported: the integers, the rationals, and Z/m for
any modulus m >= 2 (composite moduli included -- the constructive machinery
in this package never divides, so Z/4 and Z/6 are first-class test rings).
No floating point is used anywhere.

A :class:`Ring` is a descriptor plus arithmetic on *raw* values (int,
Fraction, or residue int).  Matrices elsewhere in the package store raw
values alongside one shared descriptor.  :class:`RingElement` is a boxed
value for call sites that want operator syntax and descriptor checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class RingMismatchError(ValueError):
    pass


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
    terms with positive denominator).
    """

    __slots__ = ("kind", "modulus", "_field")

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
        # decided once: inv() consults it on every pivot
        self._field = kind == "q" or (kind == "mod" and _is_prime(modulus))

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
        if t == "z":
            return Ring.integers()
        if t == "q":
            return Ring.rationals()
        if t.startswith("z/"):
            return Ring.modular(int(t[2:]))
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

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

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

    def inv(self, a):
        """Multiplicative inverse; only meaningful over a field."""
        if not self.is_field():
            raise ValueError("inverse requires a field")
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "q":
            return Fraction(1) / a
        return pow(a, self.modulus - 2, self.modulus)

    def is_zero(self, a):
        return a == self.zero

    def sum(self, values):
        if self.kind == "mod":
            return sum(values) % self.modulus
        if self.kind == "q":
            return sum(values, Fraction(0))
        return sum(values)

    # -- element serialisation ----------------------------------------------

    def format_value(self, a):
        """Integers and residues as decimal strings, rationals as "p/q"."""
        if self.kind == "q":
            a = Fraction(a)
            if a.denominator == 1:
                return str(a.numerator)
            return "%d/%d" % (a.numerator, a.denominator)
        return str(a)

    def parse_value(self, text):
        t = text.strip()
        if self.kind == "q":
            if "/" in t:
                num, den = t.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(t))
        return self.from_int(int(t))

    def element(self, m):
        return RingElement(self, self.from_int(m))

    def wrap(self, raw):
        return RingElement(self, raw)


@dataclass(frozen=True)
class RingElement:
    """A raw value boxed with its ring descriptor.

    Arithmetic between elements of different rings raises
    ``RingMismatchError("ring mismatch")``; equality is exact.
    """

    ring: Ring
    value: object

    def _check(self, other):
        if not isinstance(other, RingElement):
            raise TypeError("expected RingElement, got %r" % (other,))
        if other.ring != self.ring:
            raise RingMismatchError("ring mismatch")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.sub(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.mul(self.value, other.value))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value))

    def __str__(self):
        return self.ring.format_value(self.value)


# ---------------------------------------------------------------------------
# Field-only linear algebra (exact, deterministic leftmost-pivot rule)
# ---------------------------------------------------------------------------


def _raw_rows(ring, rows):
    out = []
    for row in rows:
        raw = []
        for v in row:
            raw.append(v.value if isinstance(v, RingElement) else v)
        out.append(raw)
    return out


def _echelonise(ring, rows):
    """Row-reduce in place over a field; returns the pivot column list.

    Pivot selection is the leftmost nonzero entry scanning rows top-down,
    so results are reproducible.
    """
    zero = ring.zero
    pivots = []
    piv_r = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(piv_r, len(rows)):
            if rows[r][col] != zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[piv_r], rows[pivot_row] = rows[pivot_row], rows[piv_r]
        inv = ring.inv(rows[piv_r][col])
        rows[piv_r] = [ring.mul(inv, x) for x in rows[piv_r]]
        for r in range(len(rows)):
            if r != piv_r and rows[r][col] != zero:
                factor = rows[r][col]
                rows[r] = [
                    ring.sub(x, ring.mul(factor, y))
                    for x, y in zip(rows[r], rows[piv_r])
                ]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(rows):
            break
    return pivots


def rank_over_field(ring, rows):
    """Rank of the row span of ``rows`` over a field ring."""
    if not ring.is_field():
        raise ValueError("rank requires a field")
    rows = _raw_rows(ring, rows)
    if not rows:
        return 0
    return len(_echelonise(ring, rows))


def nullspace_over_field(ring, rows, n_cols=None):
    """Deterministic basis of the right nullspace of the row system."""
    if not ring.is_field():
        raise ValueError("nullspace requires a field")
    rows = _raw_rows(ring, rows)
    if n_cols is None:
        if not rows:
            raise ValueError("empty system needs explicit n_cols")
        n_cols = len(rows[0])
    if not rows:
        rows = [[ring.zero] * n_cols]
    pivots = _echelonise(ring, rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [ring.zero] * n_cols
        vec[free] = ring.one
        for r, pc in enumerate(pivots):
            vec[pc] = ring.neg(rows[r][free])
        basis.append(vec)
    return basis


def solve_linear_system_over_field(ring, a_rows, b):
    """Solve A x = b exactly over a field.

    Returns ``None`` when inconsistent, else a pair
    ``(particular_solution, nullspace_basis)``; free variables of the
    particular solution are set to zero.
    """
    if not ring.is_field():
        raise ValueError("solve requires a field")
    a_rows = _raw_rows(ring, a_rows)
    b = [v.value if isinstance(v, RingElement) else v for v in b]
    if len(a_rows) != len(b):
        raise ValueError("dimension mismatch")
    if not a_rows:
        raise ValueError("empty system")
    n_cols = len(a_rows[0])
    aug = [row[:] + [rhs] for row, rhs in zip(a_rows, b)]
    pivots = _echelonise(ring, aug)
    if pivots and pivots[-1] == n_cols:
        return None  # pivot in the augmented column
    pivots = [c for c in pivots if c < n_cols]
    particular = [ring.zero] * n_cols
    for r, pc in enumerate(pivots):
        particular[pc] = aug[r][n_cols]
    # consistency of rows below the pivot block
    for r in range(len(pivots), len(aug)):
        if aug[r][n_cols] != ring.zero:
            return None
    coeff = [row[:n_cols] for row in aug[: len(pivots)]]
    basis = nullspace_over_field(ring, coeff, n_cols) if pivots else \
        nullspace_over_field(ring, [[ring.zero] * n_cols], n_cols)
    return particular, basis


def determinant(ring, rows):
    """Exact determinant by cofactor expansion; test oracle for small sizes."""
    m = len(rows)
    if m == 0:
        return ring.one
    if m == 1:
        return rows[0][0]
    total = ring.zero
    for j in range(m):
        if rows[0][j] == ring.zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = ring.mul(rows[0][j], determinant(ring, minor))
        total = ring.add(total, ring.neg(term) if j % 2 else term)
    return total
