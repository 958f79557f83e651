"""The slice colouring algorithm and free extension/decomposition patterns.

The colouring walks the injective index set I'(n,r), repeatedly taking the
largest (or smallest) uncoloured element: an element that is the sole
uncoloured member of one of its slices is forced (colour 0), anything else
is free (colour 1), and each colouring step cascades through newly
single-uncoloured slices.  Pre-zeroed elements model entries already known
from specialness or from prescribed columns.

Free patterns are built by the mutual recursion

    F(n,r) = F'(n,r) | F''(n,r),   F'(n,r) <-> D(n,r-1),
    F''(n,r) = union over j of the per-block patterns theta-image of F(n-1,r),
    D(n,r)  = D'(n,r) | D''(n,r)  (full per-block patterns for j >= r+2,
              colouring-filtered ones for j = r+1..2),

bottoming out at F(n,1) = {(i,j): 2 <= i,j <= n} and at empty patterns when
extensions are unique.  All patterns here are based on the last block row;
:class:`Basis` carries them, and the matrices, lines and keys that go with
them, to any other block row or column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

from . import indices as ix
from .tensor import gather


@dataclass(frozen=True)
class ColourEvent:
    index: tuple
    colour: int
    # None for free / pre-zeroed elements; otherwise the (alpha, context)
    # slice whose last uncoloured member this element was.
    forcing_slice: tuple | None
    initial: bool = False


@dataclass
class Colouring:
    n: int
    r: int
    colour: dict
    events: list = field(repr=False)
    slices: dict = field(repr=False)  # ix.alpha_slices(n, r)

    @property
    def ones(self):
        return tuple(sorted(i for i, c in self.colour.items() if c == 1))


def colour(n, r, policy="largest", initial_zeros=()):
    """Run the colouring on I'(n,r).

    ``initial_zeros`` are pre-coloured 0 before the main loop (their values
    are considered known, not free).  The returned events list records the
    colouring order and, for each cascade-forced element, the slice that
    forced it; replaying the events against the members in ``slices`` turns
    known slice sums into entry values by subtraction only.
    """
    if policy not in ("largest", "smallest"):
        raise ValueError("unknown policy %r" % (policy,))
    members = ix.injective_indices(n, r)
    slot = {}
    for idx in members:
        slot[idx] = [(alpha, ix.drop_place(idx, alpha)) for alpha in range(1, r + 1)]
    slices = ix.alpha_slices(n, r)
    uncoloured_count = {key: len(v) for key, v in slices.items()}

    colours = {}
    events = []

    def mark(idx, value, forcing=None, initial=False):
        colours[idx] = value
        events.append(ColourEvent(idx, value, forcing, initial))
        for key in slot[idx]:
            uncoloured_count[key] -= 1

    def cascade(start):
        queue = [start]
        while queue:
            current = queue.pop(0)
            for key in slot[current]:
                if uncoloured_count[key] == 1:
                    forced = next(m for m in slices[key] if m not in colours)
                    mark(forced, 0, forcing=key)
                    queue.append(forced)

    initial_zeros = frozenset(initial_zeros)
    for idx in sorted(initial_zeros):
        if idx not in slot:
            raise ValueError("initial zero %s is not injective" % (idx,))
        mark(idx, 0, initial=True)
    for idx in sorted(initial_zeros):
        cascade(idx)

    remaining = sorted(set(members) - set(colours), reverse=(policy == "largest"))
    for idx in remaining:
        if idx in colours:
            continue
        forced_key = None
        for key in slot[idx]:
            if uncoloured_count[key] == 1:
                forced_key = key
                break
        mark(idx, 0 if forced_key else 1, forcing=forced_key)
        cascade(idx)

    return Colouring(n, r, colours, events, slices)


def modified_colouring(n, r, j, policy="largest", zero_l_closure=True):
    """The colouring used to cut per-block decomposition patterns.

    Entries containing j are pre-zeroed, being zero by specialness; with
    ``zero_l_closure`` (the reading used by the pattern construction) the
    place-permutation closure of the prescribed-column labels L_{j-1} is
    pre-zeroed as well.  A block column j outside 1..n is a ``ValueError``.
    """
    if not 1 <= j <= n:
        raise ValueError("block column j must lie in 1..%d, got %d" % (n, j))
    zeros = {idx for idx in ix.injective_indices(n, r) if j in idx}
    if zero_l_closure:
        zeros.update(ix.l_closure(n, r, j - 1))
    return colour(n, r, policy, frozenset(zeros))


# ---------------------------------------------------------------------------
# Free patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreePattern:
    n: int
    r: int
    basis: str  # "row:<i>" or "col:<j>"
    flavour: str  # "extension" or "decomposition"
    entries: tuple  # pairs (row, col) or triples (j, row, col)

    def __len__(self):
        return len(self.entries)

    def to_json(self):
        def fmt(e):
            if self.flavour == "decomposition":
                return [str(e[0]), ix.format_index(e[1]), ix.format_index(e[2])]
            return [ix.format_index(e[0]), ix.format_index(e[1])]

        return {
            "n": self.n,
            "r": self.r,
            "basis": self.basis,
            "flavour": self.flavour,
            "entries": [fmt(e) for e in self.entries],
        }


def base_pattern_f_n1(n):
    """The rank-one extension pattern {(i, j): 2 <= i, j <= n}."""
    if n < 2:
        raise ValueError("need n >= 2")
    entries = tuple(((i,), (j,)) for i in range(2, n + 1) for j in range(2, n + 1))
    return FreePattern(n, 1, "row:%d" % n, "extension", entries)


@lru_cache(maxsize=None)
def per_block_labels(n, r, j):
    """The per-block pattern theta^n_j F(n-1, r), labelled: a pair
    (image, source) for each source entry of F(n-1, r).  Rows embed
    avoiding n and columns avoiding j; both embeddings keep the order, so
    the images come sorted."""
    return tuple(
        ((ix.embed_index(row, n), ix.embed_index(col, j)), (row, col))
        for row, col in build_f(n - 1, r).entries
    )


def per_block_entries(n, r, j):
    """Entry pairs of the per-block pattern theta^n_j F(n-1, r)."""
    return tuple(x for x, _ in per_block_labels(n, r, j))


@lru_cache(maxsize=None)
def build_d(n, r):
    """The free decomposition pattern D(n,r) for the last block row.

    Empty when n <= r+1 (the decomposition is unique there).  Otherwise the
    blocks j = r+2..n contribute their full per-block patterns and the
    blocks j = r+1..2 contribute the entries surviving the modified
    colouring; block 1 is the forced remainder and contributes nothing.
    """
    _hold_pattern(n, r, n, n - 1)
    if n <= r + 1:
        return FreePattern(n, r, "row:%d" % n, "decomposition", ())
    entries = []
    for j in range(2, n + 1):
        per_block = per_block_entries(n, r, j)
        if j >= r + 2:
            chosen = per_block
        else:
            free_cols = set(modified_colouring(n, r, j).ones)
            chosen = [pair for pair in per_block if pair[1] in free_cols]
        entries.extend((j,) + pair for pair in chosen)
    return FreePattern(n, r, "row:%d" % n, "decomposition", tuple(sorted(entries)))


@lru_cache(maxsize=None)
def build_f(n, r):
    """The free extension pattern F(n,r) for the last block row."""
    # F(n, 1) holds its own entries, and above it the n per-block patterns
    _hold_pattern(n, r, *((1, n) if r == 1 else (n, n - 1)))
    if n <= r:
        return FreePattern(n, r, "row:%d" % n, "extension", ())
    if r == 1:
        return base_pattern_f_n1(n)
    entries = set(f_prime_entries(n, r))
    for j in range(1, n + 1):
        entries.update(per_block_entries(n, r, j))
    return FreePattern(n, r, "row:%d" % n, "extension", tuple(sorted(entries)))


def f_prime_entries(n, r):
    """F'(n,r): images of the decomposition pattern D(n,r-1) under the
    block-row labelling (j, p, q) -> (n.p, j.q)."""
    return tuple(
        sorted(((n,) + p, (j,) + q) for (j, p, q) in build_d(n, r - 1).entries)
    )


def _hold_pattern(n, r, blocks, lower):
    """Refuse a pattern build at (n, r) past MAX_HELD before it starts: on
    I'(n, r), then on the ``blocks`` copies of F(lower, r) that it holds."""
    ix.hold_at_most(ix.injective_counts(n, r), "I'(%d,%d)" % (n, r), "injective indices")
    ix.hold_at_most([blocks * free_pattern_size(lower, r)], "pattern (%d,%d)" % (n, r), "entries")


def _partitions(m, largest):
    """Partitions of m as non-increasing tuples, parts at most ``largest``
    (none when ``largest`` < 0)."""
    if m == 0 <= largest:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def free_pattern_size(n, r):
    """|F(n, r)| = dim E(n, r) - dim E(n, r - 1): the sum of (f^lambda)^2
    over the partitions lambda = (n - r, mu) of n, by the hook-length
    formula.  The first row's hooks past column mu_1 multiply to
    (n - r - mu_1)!, which cancels from n!, so the cost does not grow with n."""
    total = 0
    for mu in _partitions(r, n - r):
        heights = [sum(part > c for part in mu) for c in range(mu[0] if mu else 0)]
        hooks = math.prod(n - r - c + height for c, height in enumerate(heights))
        hooks *= math.prod(part - c + heights[c] - row - 1
                           for row, part in enumerate(mu) for c in range(part))
        total += (math.perm(n, r + len(heights)) // hooks) ** 2
    return total


def closed_form_centraliser_dimension(n, r):
    """dim E(n,r) = sum of (f^lambda)^2 over partitions lambda of n with
    n - lambda_1 <= r (Halverson-Ram)."""
    return sum(free_pattern_size(n, m) for m in range(min(r, n) + 1))


# ---------------------------------------------------------------------------
# Relabelling to and from the last block row
# ---------------------------------------------------------------------------


def swap_perm(n, i):
    """The transposition of i and n, which carries the block row (or
    column) i to the last one and back."""
    tau = list(range(1, n + 1))
    tau[i - 1], tau[n - 1] = n, i
    return tuple(tau)


def relabel_vector(vector, w, r):
    """The vector over I(n,r) whose entry at w.j is ``vector[j]``."""
    return [vector[k] for k in ix.act_ranks(ix.perm_inverse(w), r)]


def relabel(a, w):
    """phi(w) a phi(w)^-1 by index relabelling: the entry of ``a`` at
    (i, j) moves to (w.i, w.j)."""
    sources = ix.act_ranks(ix.perm_inverse(w), a.r)
    return gather(a, a.n, sources, sources)


_BASIS_NAME = re.compile(r"(row|col):([0-9]+)")


@dataclass(frozen=True)
class Basis:
    """A block row ``row:i`` or block column ``col:j`` of an invariant.

    Extensions and decompositions are built along the last block row.
    Conjugation by tau = (line n) and, for a block column, transposition
    are commuting involutions, so each map below carries an object from
    this basis to the last block row and also back.  For the last block
    row no map relabels or copies a matrix, a line or a pattern.
    ``invariants.theta`` builds decomposition summands in the basis.
    """

    n: int
    line: int
    transpose: bool  # a block column
    tau: tuple | None  # the swap (line n); None when line == n

    @property
    def name(self):
        return "%s:%d" % ("col" if self.transpose else "row", self.line)

    def value(self, k):
        return k if self.tau is None else self.tau[k - 1]

    def index(self, u):
        """A multi-index, such as that of a prescribed row or column."""
        return u if self.tau is None else ix.act_left(self.tau, u)

    def entry(self, pair):
        """An entry key (u, v)."""
        u, v = self.index(pair[0]), self.index(pair[1])
        return (v, u) if self.transpose else (u, v)

    def key(self, key):
        """A decomposition key (k, p, q): summand k, entry (p, q)."""
        return (self.value(key[0]),) + self.entry(key[1:])

    def vector(self, vector, r):
        """A prescribed line over I(n,r); transposition leaves it alone."""
        return vector if self.tau is None else relabel_vector(vector, self.tau, r)

    def matrix(self, a):
        if self.tau is not None:
            a = relabel(a, self.tau)
        return a.transpose() if self.transpose else a

    def tags(self):
        return [
            (k, self.line) if self.transpose else (self.line, k)
            for k in range(1, self.n + 1)
        ]

    def pattern(self, pattern):
        """An extension or decomposition pattern of the last block row."""
        if self.tau is None and not self.transpose:
            return pattern
        move = self.key if pattern.flavour == "decomposition" else self.entry
        entries = tuple(sorted(move(e) for e in pattern.entries))
        return FreePattern(pattern.n, pattern.r, self.name, pattern.flavour, entries)


def parse_basis(basis, n):
    """The Basis named ``"last-row"``, ``"row:i"`` or ``"col:j"`` with
    1 <= i, j <= n; any other name, or n < 1, raises ValueError."""
    if n < 1:
        raise ValueError("n must be positive, got %d" % n)
    if basis == "last-row":
        transpose, line = False, n
    else:
        match = _BASIS_NAME.fullmatch(basis) if isinstance(basis, str) else None
        if match is None:
            raise ValueError(
                "unknown basis %r: expected last-row, row:i or col:j" % (basis,)
            )
        transpose, line = match.group(1) == "col", int(match.group(2))
        if not 1 <= line <= n:
            raise ValueError("basis %r needs a line between 1 and %d" % (basis, n))
    return Basis(n, line, transpose, None if line == n else swap_perm(n, line))


# ---------------------------------------------------------------------------
# Plain-text table rendering (golden-file comparisons)
# ---------------------------------------------------------------------------


def _grid(pattern, rows, marks, columns):
    """Grid of the (row, column) ``marks``, ``columns`` as in :func:`render_pattern`."""
    used = sorted({c for _, c in marks})
    cols = ix.injective_indices(pattern.n, pattern.r) if columns == "all" else used
    width = max([len(ix.format_index(c)) for c in cols] + [1]) + 1
    label_w = max((len(ix.format_index(r)) for r in rows), default=0)
    head = " " * (label_w + 2)
    head += "".join(ix.format_index(c).rjust(width) for c in cols)
    lines = [head.rstrip()]
    for row in rows:
        line = ix.format_index(row).ljust(label_w) + " |"
        line += "".join(("x" if (row, c) in marks else ".").rjust(width) for c in cols)
        lines.append(line.rstrip())
    return "\n".join(lines)


def render_pattern(pattern, columns="used"):
    """Checkmark grid of an extension pattern.

    ``columns`` is "used" (only columns carrying at least one mark, as in
    the larger reference grids) or "all" (every injective index).
    """
    entries = set(pattern.entries)
    return _grid(pattern, sorted({u for u, _ in entries}), entries, columns)


def render_decomposition_pattern(pattern, columns="used"):
    """Checkmark grids of a decomposition pattern, one block per summand,
    labelled j=<k> along a block row and i=<k> along a block column."""
    label = "i=%d" if pattern.basis.startswith("col:") else "j=%d"
    by_j = {}
    for (j, p, q) in pattern.entries:
        by_j.setdefault(j, set()).add((p, q))
    rows = sorted({e[1] for e in pattern.entries})
    sections = []
    for j in sorted(by_j):
        sections += [label % j, _grid(pattern, rows, by_j[j], columns)]
    return "\n".join(sections)


def render_colouring(colouring):
    """One 0/1 row under the lexicographic column labels."""
    cols = ix.injective_indices(colouring.n, colouring.r)
    width = max((len(ix.format_index(c)) for c in cols), default=0) + 1
    head = "".join(ix.format_index(c).rjust(width) for c in cols)
    row = "".join(str(colouring.colour[c]).rjust(width) for c in cols)
    return head.rstrip() + "\n" + row.rstrip()
