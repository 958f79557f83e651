"""Duality verification: rank-of-span versus centraliser-dimension oracles.

The centraliser is the solution set of the commutant linear system of
the three generator families, compressed onto place-permutation orbit
variables: constancy on orbits disposes of the transposition generators,
value-type preservation kills the mismatched orbits, and the slice-sum
conditions become the remaining linear equations.  The surviving orbits
are read off the H-mask table that membership and the construction use,
and a special tag's off the place masks of ``is_special``.  Each n x n
minor gives its slice-sum differences but one, which the others imply,
since its row sums and its column sums add up to the same total.

From degree 3 on, and below it wherever d = dim E(n, r) is at most
_PEEL_RUN, its dimension comes with no elimination, from a certificate
on the tower system (:func:`_tower_system`): the live orbit variables of
every degree k = 0..r, and one row per line of each last-place minor at
degree k, saying that the line sums to its context's value one degree
down, zero at a mismatch.  The system depends on (n, r) alone, so it is
built once per cell and kept, each row a pair of sorted tuples of
unknowns, the line's and its context's; the peel reads those rows on
every call, and no certified dimension is kept.  The proof has three
steps.
First, seeded with the d tower coordinates, the scalar and the orbits of
the entries of F(n, k), a peel forces every unknown from rows with one
unknown left, of coefficient +-1, so a solution is an integer
combination of its seeds, over every ring: the seeds inject.  Second,
every row the peel did not use vanishes over Z on those combinations, so
every assignment of the seeds extends to a solution, over every ring.
Third, restriction keeps invariance, so an invariant and its
restrictions solve the system, and the top degree of a solution is an
invariant whose restrictions are the lower degrees: the lower levels cut
nothing out of E(n, r).  So E(n, r) is free of rank d over every ring
(:func:`_peel`).  Below degree 3 where d passes _PEEL_RUN, and if a seed
repeats, the peel stalls or a row fails, the dimension is the nullity of
the slice equations by elimination instead.  The closed form picks the
route below degree 3, but neither route reads it, or the span, for its
answer.

The span dimension is the rank of the permutation powers phi(w) on their
d = dim E(n, r) tower coordinates, each a 0/1 read, walking W_n by number
of moved points until the rank reaches the hook-length closed form d.
Reaching d proves the span has dimension d: the tower map is linear, so
the tower rank is at most the span's dimension, which over F_p is at most
its dimension over Q, d, because the powers are integer matrices.  Over
a field the span and the centraliser, each from its own derivation, must
coincide; over non-field rings the membership-and-reconstruction route is
exercised instead.

The psi side needs no elimination.  Its columns are the diagonal W_n
orbits on I(n,r) x I(n,r), named by the restricted-growth words of length
2r in at most n letters, which are also the diagrams with at most n
blocks.  The row of such a diagram is 1 at its own word and otherwise only
at its proper coarsenings, which have fewer letters, so by decreasing
number of blocks these rows form a unitriangular square (the orbit basis
of Halverson-Ram).  Checked row by row, the square proves that the
diagram span has rank the number of classes over every ring, a rank the
rows of the other diagrams cannot exceed; that number is checked against
the Stirling sum.
"""

from __future__ import annotations

import itertools
import operator
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import extension as ext
from . import indices as ix
from . import diagrams as dg
from . import patterns as pt
from . import tensor as tn
from .invariants import _off_tag_columns, _split_ranks, eta
from .rings import sparse_nullspace
from .rings import sparse_rank as _sparse_rank


# n^r bounds r for n >= 2; at n <= 1 the tables still grow with r itself
MAX_R = 10**6


def _check_cap(n, r, unsafe_large):
    if n < 0:
        raise ValueError("n must be non-negative, got %d" % n)
    if not unsafe_large and tn.power_within(n, 2 * r, ix.MAX_HELD) is None:
        raise ix.CapExceeded(
            "n^2r = %d^%d matrix entries exceed the default cap %d; pass "
            "--unsafe-large (unsafe_large=True) to override" % (n, 2 * r, ix.MAX_HELD)
        )
    if r > MAX_R:
        raise ValueError("r must be at most %d, got %d" % (MAX_R, r))
    if n == 0:
        raise ValueError("n must be positive, got 0")


# ---------------------------------------------------------------------------
# Orbit-variable setup
# ---------------------------------------------------------------------------


def _live_orbits(n, r, special_tag=None):
    """:func:`indices.omega_orbits` and ``live``, numbering the orbits of
    :func:`extension._live_table` that pass, optionally, the place-of-value
    matching of a special-invariant tag (p, q), tested at each orbit's lead
    with :func:`invariants.is_special`'s place masks."""
    orbit_of, leads = ix.omega_orbits(n, r)
    keep = ext._live_table(n, r)[1]
    if special_tag is not None:
        p, q = special_tag
        row_masks = [mask for mask, _ in _split_ranks(n, r, p)]
        off, size = _off_tag_columns(n, r, q), n**r
        keep = [s and not off[row_masks[lead // size]][lead % size]
                for s, lead in zip(keep, leads)]
    live = dict(zip(itertools.compress(range(len(keep)), keep), itertools.count()))
    return orbit_of, leads, live


def _minor_lines(n, r, num):
    """The lines of each last-place minor at degree r, one context per
    orbit of :func:`indices.orbit_table` one degree down, in order of
    orbit id (at n = 1 the one context (0, 0)): its n column lines, then
    its n row lines, each a slice of ``num``, the variable of each entry
    position in row-major order, or None at a mismatch.

    Inserting at the last place turns the context rank p into the n
    consecutive ranks p*n, ..., p*n + n - 1, so the minor of context (p, q)
    starts at position base = p n^(r+1) + q n: row s is the n positions
    from base + s n^r, and column t every n^r-th position from base + t.
    Within a line the entries lie in distinct orbits: a place permutation
    keeps the multiset of the values of each index, and the entries of a
    line differ in one value.
    """
    size = n**r
    lower = n ** (r - 1)
    span = (n - 1) * size + 1
    for lead in ix.orbit_table(n, r - 1)[1] if n > 1 else [0]:
        p, q = divmod(lead, lower)
        base = p * n * size + q * n
        yield [*(num[t : t + span : size] for t in range(base, base + n)),
               *(num[s : s + n] for s in range(base, base + n * size, size))]


def _line_sum(line, vec):
    """``vec`` plus the sum of the variables of ``line``."""
    for var in line:
        if var is not None:
            vec[var] = vec.get(var, 0) + 1
    return vec


def _slice_equations(n, r, orbit_of, live):
    """Deduplicated slice-sum difference equations on live orbit variables.

    Only the last place is walked.  The unknowns are S_r-orbit variables,
    and a place permutation carrying place alpha to place r maps the
    (alpha, p, q) equations onto (r, p', q') equations over the same
    variables, so the last place alone already yields every equation.
    A permutation of the first r - 1 places likewise carries the minor of
    context (p, q) onto one with the same sums, so one context per orbit
    one rank down suffices (:func:`_minor_lines`).

    Each minor gives the differences C_t - C_0 of its column sums C and
    R_s - C_0 of its row sums R, all but the last, R_(n-1) - C_0: the row
    sums and the column sums both add up to the sum of the minor, so that
    one is sum_(t >= 1) (C_t - C_0) - sum_(s < n-1) (R_s - C_0), an integer
    combination of the kept rows, and the solutions are the same over
    every ring.
    """
    rows = set()
    for lines in _minor_lines(n, r, list(map(live.get, orbit_of))):
        sums = [_line_sum(line, {}) for line in lines]
        ref = sums[0]
        for vec in sums[1:-1]:
            diff = dict(ref)
            for var, c in vec.items():
                nc = diff.get(var, 0) - c
                if nc:
                    diff[var] = nc
                else:
                    diff.pop(var, None)
            if diff:
                rows.add(tuple(sorted(diff.items())))
    return [dict(row) for row in sorted(rows)]


@lru_cache(maxsize=None)
def _tower_system(n, r):
    """The tower system at (n, r), built once per cell: its rows on the live
    orbit variables of every degree k = 0..r, numbered degree by degree
    from the scalar 0, its seeds, and its number of unknowns.

    At each degree k >= 1 every line of every minor of
    :func:`_minor_lines` gives one row ``(plus, minus)``, two sorted tuples
    of unknowns saying that the sum of ``plus``, the line's entries, is the
    sum of ``minus``, its context's variable one degree down, or nothing
    where that orbit is a mismatch.  The rows are kept once each, sorted,
    and none is empty.  The seeds are the scalar and, at each degree k, the
    orbit of each entry of F(n, k) (:func:`_tower_reads`), so d = dim
    E(n, r) of them; a seed off the live orbits is None.
    """
    tables = [_live_orbits(n, k) for k in range(r + 1)]
    starts = list(itertools.accumulate((len(live) for _, _, live in tables), initial=0))
    rows = set()
    for k in range(1, r + 1):
        orbit_of, leads, live = tables[k]
        var_of = [None] * len(leads)
        for orbit, var in live.items():
            var_of[orbit] = starts[k] + var
        below = tables[k - 1][2]
        num = list(map(var_of.__getitem__, orbit_of))
        for context, lines in enumerate(_minor_lines(n, k, num)):
            var = below.get(context)
            minus = () if var is None else (starts[k - 1] + var,)
            # from degree 1 on every variable is at least 1, so filter drops only None
            plus = map(tuple, map(sorted, map(filter, itertools.repeat(None), lines)))
            rows.update(zip(plus, itertools.repeat(minus)))
    rows.discard(((), ()))
    seeds = [0]
    for k, _, _, at in _tower_reads(n, r):
        orbit_of, _, live = tables[k]
        seeds += (starts[k] + live[orbit_of[p]] if orbit_of[p] in live else None for p in at)
    return tuple(sorted(rows)), tuple(seeds), starts[-1]


# Seeds per run of the peel's check.  A run holds one integer of about
# _PEEL_RUN w bits per unknown, w the digit width, and makes one pass over
# the steps and the rows left over, so a longer run makes fewer passes
# over longer integers and holds more.  In fresh processes, against 128
# seeds per run (BENCH_packed_apply.json, peel_run), 256 takes the peel at
# (8,3) from 1.47-1.59 s to 1.06-1.11 s and at (7,3) from 0.27-0.30 s to
# 0.21-0.24 s; 512 takes (8,3) to 0.93-0.95 s, but the peak RSS at (6,4),
# where d = 719 and no run width is clearly faster, from 68 MB to 101 MB,
# against 79 MB at 256.  It also bounds the route below degree 3
# (_PEEL_FROM_R): there the certificate runs only where d fits one run.
_PEEL_RUN = 256


def _peel(rows, seeds, unknowns):
    """d = len(seeds) when the rows certify that their solutions over
    every ring are fixed by, and free on, the seeded unknowns; else None.

    Each row ``(plus, minus)`` says that the unknowns of ``plus`` sum to
    those of ``minus``, and must name each unknown at most once, so every
    coefficient is +-1, as in the tower system, where the entries of a line
    lie in distinct orbits and its context's variable is one degree down.
    The peel forces an unknown from a row in which it is the only one left,
    rows in the order they become ready, until every unknown is forced:
    then each is an integer combination of the seeds, and a solution is
    fixed by them.  Every assignment of the seeds is a solution when each
    row not used to force vanishes over Z on the forced values.  That is
    checked on all seeds at once, _PEEL_RUN at a time, seed k of a run
    set to 2^(w k) (Kronecker substitution): every combination is then the
    sum of its integer coefficients times those powers.  The digit width w
    covers the bound on every forced value at each unit assignment, the
    seeds' 1 summed along the peel, times the length of the longest row,
    which bounds every row sum, so a row vanishes exactly when its packed
    sum is 0.
    """
    if None in seeds or len(set(seeds)) != len(seeds):
        return None
    left, rows_of = [], [[] for _ in range(unknowns)]
    for i, (plus, minus) in enumerate(rows):
        named = plus + minus
        if len(set(named)) != len(named):
            return None
        left.append(len(named))
        for var in named:
            rows_of[var].append(i)
    longest = max(left, default=1)
    known, bound, ready, steps, used = bytearray(unknowns), [0] * unknowns, [], [], set()

    def know(var, size):
        known[var], bound[var] = 1, size
        for i in rows_of[var]:
            left[i] -= 1
            if left[i] == 1:
                ready.append(i)

    for var in seeds:
        know(var, 1)
    reach = bound.__getitem__
    for i in ready:  # grows as it is read, so the peel runs breadth first
        # the row solved for the one unknown left: the other side less the
        # rest of its own
        plus, minus = rows[i]
        for var in plus:
            if not known[var]:
                plus, minus = minus, plus
                break
        else:
            for var in minus:
                if not known[var]:
                    break
            else:
                continue
        minus = [v for v in minus if v != var]
        steps.append((var, plus, minus))
        used.add(i)
        know(var, sum(map(reach, plus)) + sum(map(reach, minus)))
    if not all(known):
        return None
    pluses = [plus for i, (plus, _) in enumerate(rows) if i not in used]
    minuses = [minus for i, (_, minus) in enumerate(rows) if i not in used]
    width = (max(bound) * longest).bit_length() + 1
    for start in range(0, len(seeds), _PEEL_RUN):
        values = [0] * unknowns
        for k, var in enumerate(seeds[start : start + _PEEL_RUN]):
            values[var] = 1 << (width * k)
        get = values.__getitem__
        for var, plus, minus in steps:
            values[var] = sum(map(get, plus)) - sum(map(get, minus))
        if ([*map(sum, map(map, itertools.repeat(get), pluses))]
                != [*map(sum, map(map, itertools.repeat(get), minuses))]):
            return None
    return len(seeds)


def centraliser_dimension(n, r, ring, with_basis=False, unsafe_large=False):
    """dim over a field of the full diagram-action centraliser.

    Without a basis, at n >= 2, it is d from the tower certificate when
    r >= 3 or d = dim E(n, r) is at most ``_PEEL_RUN``, so that the
    certificate's check is one packed run (r = 2 for n <= 6, r = 1 for
    n <= 16; at n = 1 the slice equations have no rows, and past that d
    below degree 3 they eliminate with little fill: see ``_PEEL_FROM_R``).
    The certificate proves in three steps that E(n, r) is free of rank d
    over every ring: the peel forces every unknown of the tower system
    from +-1 rows, so the d seeds inject; every row left over vanishes
    over Z, so every assignment of them extends; and restriction keeps
    invariance, so the lower degrees of the system cut nothing out of
    E(n, r) (:func:`_peel`).  Where the certificate does not run or does
    not close, and with a basis, it is the nullity of the slice equations
    by elimination.

    Optionally returns a basis in reduced echelon form (a list of
    TensorMatrix values, one per free variable of the commutant system).
    """
    return _invariant_dimension(n, r, ring, None, with_basis, unsafe_large)


def special_invariant_dimension(n, r, ring, tag=None, unsafe_large=False):
    """dim over a field of the special invariants with the given tag
    (default (n, n), the half-algebra identification target)."""
    return _invariant_dimension(n, r, ring, tag or (n, n), False, unsafe_large)


# The least degree from which the tower certificate runs at every cell;
# below it, it runs where d <= _PEEL_RUN, so that its check is one packed
# pass over the kept system: at r = 2 for n <= 6 and at r = 1 for
# n <= 16.  There it is the cheaper route on a first call in a fresh
# process, and by far on a later one, which pays the peel alone: over Q
# 2.8 ms against 5.4 ms eliminated on a first call and 0.7 ms against
# 4.6 ms later at (5,2), 8.5 ms against 20 ms and 2.3 ms against 17.5 ms
# at (6,2) (BENCH_route_degree_two.json).  Past d = _PEEL_RUN below
# degree 3 the slice equations, which eliminate with little fill (at
# r = 1 they are 2n - 2 rows), run instead: the check makes d / _PEEL_RUN
# passes over the whole system, and the first call at a cell builds the
# system and F(n, k) for its seeds, so that at (20,2) the certificate's
# first call takes 10.3 s and 500 MB against 5.5 s and 430 MB
# eliminated.  From degree 3 on elimination fills: at no cell measured
# inside the cap is it cheaper on a first call by more than 0.005 s, and
# at (7,3) it takes 4.0 s against the certificate's 0.27 s.  At n = 1
# each line is its one entry, so the slice equations are no rows at all,
# while the tower would walk r + 1 degrees.
_PEEL_FROM_R = 3


def _invariant_dimension(n, r, ring, tag, with_basis, unsafe_large):
    """With no tag and no basis, at n >= 2, when r >= 3 or the closed form
    d is at most _PEEL_RUN, the tower certificate's d, where it closes;
    else the nullity of the slice equations on the tag's live orbits, and
    with no tag optionally a basis, numbered as
    :func:`extension._from_live`."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    if r == 0:
        return (1, [tn.TensorMatrix.scalar(n, ring, ring.one)]) if with_basis else 1
    _check_cap(n, r, unsafe_large)
    if tag is None and not with_basis and n > 1 and (
            r >= _PEEL_FROM_R or closed_form_centraliser_dimension(n, r) <= _PEEL_RUN):
        d = _peel(*_tower_system(n, r))
        if d is not None:
            return d
    orbit_of, _, live = _live_orbits(n, r, tag)
    rows = _slice_equations(n, r, orbit_of, live)
    if not with_basis:
        return len(live) - _sparse_rank(ring, rows)
    basis = [ext._from_live(ring, n, r, v) for v in sparse_nullspace(ring, rows, len(live))]
    return len(basis), basis


def span_dimension_w(n, r, ring, unsafe_large=False):
    """Rank of the span of the r-th Kronecker powers phi(w), w in W_n.

    Each phi(w) is read on its d = dim E(n, r) tower coordinates
    (:func:`_tower_rows`), and W_n is walked by number of moved points,
    in lexicographic order within each number.  After each whole group,
    once at least d rows are held, the rows are ranked, and the walk stops
    when the rank is d, the hook-length closed form.  That proves the span
    has dimension d without the construction's theorem: the tower map is
    linear, so the rank of the tower rows is at most the dimension of the
    span, and the powers are integer matrices, so their span over F_p has
    at most the dimension d that it has over Q.  A walk that ends short of
    d returns its rank, which the report shows as a mismatch beside the
    centraliser's own certificate or elimination.
    """
    if not ring.is_field():
        raise ValueError("span dimension requires a field")
    if r == 0:
        return 1
    _check_cap(n, r, unsafe_large)
    perms = ix.all_permutations(n)  # a W_n past the bound is refused before any table
    target = closed_form_centraliser_dimension(n, r)
    identity = ix.perm_identity(n)

    def moved(w):
        return sum(map(operator.ne, w, identity))

    rows, rank = [], None
    for _, group in itertools.groupby(sorted(perms, key=moved), moved):
        rows += _tower_rows(n, r, group)
        if len(rows) >= target:
            rank = _sparse_rank(ring, rows)
            if rank == target:
                break
    return _sparse_rank(ring, rows) if rank is None else rank


@lru_cache(maxsize=None)
def _tower_reads(n, r):
    """For each degree k = 1..min(r, n - 1): k, n^k, the column ranks of
    F(n, k), and the tower coordinate of each entry (u, v) of F(n, k) at
    rank(u) n^k + rank(v), numbered as :func:`extension._tower_slices`."""
    reads, coordinate = [], itertools.count(1)
    for k in range(1, min(r, n - 1) + 1):
        size = n**k
        at = {ix.index_rank(n, u) * size + ix.index_rank(n, v): c
              for (u, v), c in zip(pt.build_f(n, k).entries, coordinate)}
        reads.append((k, size, sorted({p % size for p in at}), at))
    return reads


def _tower_rows(n, r, perms):
    """The tower coordinates of phi(w) for each w, as sparse 0/1 rows:
    coordinate 0, rho^r(phi(w)) = 1, and the entry (u, v) of F(n, k) when
    w.v = u, since the one 1 of row (1...1, u) of phi(w) lies in a column
    (t, v) exactly then."""
    reads = _tower_reads(n, r)
    rows = []
    for w in perms:
        hits = [0]
        for k, size, cols, at in reads:
            act = ix.act_ranks(w, k)
            hits += filter(None, map(at.get, [act[v] * size + v for v in cols]))
        rows.append(dict.fromkeys(hits, 1))
    return rows


# ---------------------------------------------------------------------------
# The opposite side (sanity oracle, not an acceptance gate)
# ---------------------------------------------------------------------------


def _psi_rows(n, r, words, diagrams):
    """The row of psi(d) on the W_n classes ``words`` for each diagram d in
    ``diagrams``, a restricted-growth word (the block of each vertex),
    yielded one at a time.

    Entry (i, j) of psi(d) is 1 exactly when the word i + j is constant on
    every block of d (vertex v reads letter v), and psi(d) commutes with
    W_n, so its value at one word of a class decides the whole class.
    Those words are the coarsenings of d: a letter g[b] per block b, read
    along the vertices.  The blocks are numbered by least vertex, so the
    read word is restricted-growth, hence a class word, exactly when g is,
    and lexicographic order on g is that on the words.
    """
    column = {word: c for c, word in enumerate(words)}
    coarsenings = {}
    for block_of in diagrams:
        k = max(block_of, default=-1) + 1
        if k not in coarsenings:
            coarsenings[k] = dg.restricted_growth_words(k, n)
        # 2r >= 2 vertices make itemgetter return a tuple; at r = 0 the word is ()
        pick = operator.itemgetter(*block_of) if r else tuple
        yield dict.fromkeys(map(column.__getitem__, map(pick, coarsenings[k])), 1)


def psi_side_dimensions(n, r, ring, unsafe_large=False):
    """(dim End over W_n, rank of the diagram span) -- equal iff the
    diagram representation surjects onto that centraliser.

    The classes are the restricted-growth words of length 2r in at most n
    letters, which are also the diagrams with at most n blocks.  The row
    of each such diagram must be 1 at its own word, its one coarsening
    with as many letters, and nonzero elsewhere only at words with fewer
    letters.  By decreasing number of blocks the rows then form a
    unitriangular square, so the rank is the number of classes over every
    ring, and the rows of the other diagrams cannot push it past the
    number of columns.  A row off that structure, or a class count other
    than the Stirling sum, is a ConstructionFailure.  All B(2r) diagrams
    are counted first, so a rank past the bound is refused before any word
    is built.
    """
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    _check_cap(n, r, unsafe_large)
    ix.hold_at_most(dg.word_counts(2 * r, 2 * r), "rank %d" % r, "diagrams")
    words = dg.restricted_growth_words(2 * r, n)
    if len(words) != wn_end_dimension(n, r):
        raise ext.ConstructionFailure(
            "%d W_n classes at (%d, %d), not the Stirling sum %d"
            % (len(words), n, r, wn_end_dimension(n, r)))
    top = [max(word, default=-1) for word in words]  # one less than its letters
    for own, row in enumerate(_psi_rows(n, r, words, words)):
        if [c for c in row if top[c] >= top[own]] != [own] or row[own] != 1:
            raise ext.ConstructionFailure(
                "the psi row of diagram word %s is not 1 at its own class and "
                "otherwise on classes with fewer letters" % list(words[own]))
    return len(words), len(words)


# ---------------------------------------------------------------------------
# Closed forms (characteristic 0; elimination-free third derivations)
# ---------------------------------------------------------------------------


# the hook-length form lives with the free patterns, whose bound reads it
closed_form_centraliser_dimension = pt.closed_form_centraliser_dimension


def wn_end_dimension(n, r):
    """dim End_{W_n}(V^{(x)r}) = sum over k <= n of the Stirling numbers
    S(2r, k): set partitions of 2r points into at most n blocks."""
    return [1, *dg.word_counts(2 * r, n)][-1]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    n: int
    r: object  # int, or a string like "2+1/2" for the half algebra
    ring: str
    dim_span_w: int | None = None
    dim_centraliser: int | None = None
    surjective_phi: bool | None = None
    psi_side: dict | None = None
    membership_checks: dict | None = None
    witnesses: list = field(default_factory=list)
    # seconds per stage by time.perf_counter (swd verify --timings prints
    # them); deliberately left out of to_json so that serialised reports
    # stay deterministic for a given (n, r, ring, seed)
    timings: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.surjective_phi is not False and not self.witnesses

    def to_json(self):
        doc = {
            "schema": "swd/1",
            "n": self.n,
            "r": self.r,
            "ring": self.ring,
            "dim_span_w": self.dim_span_w,
            "dim_centraliser": self.dim_centraliser,
            "surjective_phi": self.surjective_phi,
            "ok": self.ok,
        }
        if self.psi_side is not None:
            doc["psi_side"] = self.psi_side
        if self.membership_checks is not None:
            doc["membership_checks"] = self.membership_checks
        if self.witnesses:
            doc["witnesses"] = self.witnesses
        return doc


def random_invariant(n, r, ring, rng, span_bound=3):
    """A random element of the centraliser: a small integer combination of
    Kronecker powers of permutation matrices, mapped into the ring, one
    coefficient drawn per permutation in lexicographic order."""
    return tn.phi_sum({
        w: ring.from_int(rng.randrange(-span_bound, span_bound + 1))
        for w in ix.all_permutations(n)
    }, n, r, ring)


def verify_duality(n, r, ring, seed=0, samples=5, unsafe_large=False):
    """Field rings: compare span and centraliser dimensions on both sides.

    Non-field rings: construct invariants by extension from one degree
    down and express each in the permutation span.  The report rests on
    the checks inside ``extend`` (membership, restriction and free values
    of the output) and ``express_in_permutation_span`` (exact
    reconstruction), which raise on a failure (exit code 3 from the
    CLI), so ``membership_checks["ok"]`` is always true; at r = 0 there is
    nothing to extend and no sample runs.  ``timings`` holds the seconds
    of every field stage, or over a non-field ring those of ``extend``
    and ``express`` summed across the samples, and the total.
    """
    if n == 0:  # refused on every ring, so that field and non-field rings agree
        raise ValueError("n must be positive, got 0")
    if r < 0:
        raise ValueError("r must be non-negative, got %d" % r)
    report = VerificationReport(n=n, r=r, ring=ring.name)
    start = time.perf_counter()
    if ring.is_field():
        report.dim_span_w = span_dimension_w(n, r, ring, unsafe_large=unsafe_large)
        report.timings["span"] = time.perf_counter() - start
        report.dim_centraliser = centraliser_dimension(
            n, r, ring, unsafe_large=unsafe_large
        )
        report.timings["centraliser"] = time.perf_counter() - start - report.timings["span"]
        report.surjective_phi = report.dim_span_w == report.dim_centraliser
        if not report.surjective_phi:
            report.witnesses.append(
                {"kind": "dimension-mismatch", "span": report.dim_span_w,
                 "centraliser": report.dim_centraliser}
            )
        psi_start = time.perf_counter()
        psi_dim, psi_rank = psi_side_dimensions(n, r, ring, unsafe_large=unsafe_large)
        report.timings["psi"] = time.perf_counter() - psi_start
        report.psi_side = {
            "dim_end_wn": psi_dim,
            "rank_diagram_span": psi_rank,
            "surjective_psi": psi_dim == psi_rank,
        }
    else:
        rng = random.Random(seed)
        checked = samples if r >= 1 else 0
        report.timings.update(extend=0.0, express=0.0)
        for _ in range(checked):
            b = random_invariant(n, r - 1, ring, rng)
            extend_start = time.perf_counter()
            a = ext.extend(b)
            express_start = time.perf_counter()
            ext.express_in_permutation_span(a)
            report.timings["extend"] += express_start - extend_start
            report.timings["express"] += time.perf_counter() - express_start
        report.membership_checks = {"ok": True, "samples": checked}
    report.timings["total"] = time.perf_counter() - start
    return report


def verify_half(n, r, ring, unsafe_large=False):
    """Verify the half-algebra chain at (n, r + 1/2).

    Checks that excision intertwines the fixed-n permutation powers with
    the rank n-1 powers, that their span has the full centraliser
    dimension one rank down, and that the special-invariant dimension
    agrees.
    """
    if n < 2:
        raise ValueError("half algebra needs n >= 2")
    start = time.perf_counter()
    report = VerificationReport(n=n, r="%d+1/2" % r, ring=ring.name)
    if not ring.is_field():
        raise ValueError("verify-half requires a field ring")
    # the walk over W_n comes first, so that a W_n past the bound is
    # refused before any elimination
    _check_cap(n, r, unsafe_large)
    for w in ix.all_permutations(n):
        if w[n - 1] != n:
            continue
        wbar = tuple(w[t] for t in range(n - 1))
        if eta(tn.phi(w, n, r, ring), n, n) != tn.phi(wbar, n - 1, r, ring):
            report.witnesses.append(
                {"kind": "excision-mismatch", "w": list(w)}
            )
    dim_lower = centraliser_dimension(n - 1, r, ring, unsafe_large=unsafe_large)
    dim_special = special_invariant_dimension(n, r, ring, unsafe_large=unsafe_large)
    report.dim_centraliser = dim_special
    # the span of the excised fixed-n powers is the full lower span
    report.dim_span_w = span_dimension_w(n - 1, r, ring, unsafe_large=unsafe_large)
    report.surjective_phi = (
        dim_special == dim_lower == report.dim_span_w and not report.witnesses
    )
    if dim_special != dim_lower:
        report.witnesses.append(
            {"kind": "half-dimension-mismatch", "special": dim_special,
             "lower": dim_lower}
        )
    report.timings["total"] = time.perf_counter() - start
    return report


def half_commutant_dimension(n, r, ring, unsafe_large=False):
    """dim of the commutant of the restricted half-algebra action, from
    all half diagrams of rank r+1 on place-permutation orbit variables."""
    if not ring.is_field():
        raise ValueError("dimension requires a field")
    _check_cap(n, r, unsafe_large)
    return len(ix.orbit_table(n, r)[1]) - _sparse_rank(ring, _half_commutant_rows(n, r))


def _half_commutant_rows(n, r):
    """Sorted equations for X commuting with each restricted half diagram
    m: the (a, b) entries of m X and X m agree, sums over the nonzeros of
    row a and of column b of m.  Only each orbit's lead (a, b) is walked: a
    permutation of the first r places permutes the half diagrams by
    conjugation and fixes X, so it carries the equations at (a, b) onto
    those at its image."""
    orbit_of, leads = ix.orbit_table(n, r)
    size = n**r
    rows = set()
    half = [d for d in dg.enumerate_diagrams(r + 1) if dg.is_half_algebra_member(d)]
    for d in half:
        cols_by_row, rows_by_col = [[] for _ in range(size)], [[] for _ in range(size)]
        for pos in tn.psi_positions(d, n, r):
            a, b = divmod(pos, size)
            cols_by_row[a].append(b)
            rows_by_col[b].append(a)
        for a, b in (divmod(lead, size) for lead in leads):
            vec = {}
            for k in cols_by_row[a]:
                var = orbit_of[k * size + b]
                vec[var] = vec.get(var, 0) + 1
            for k in rows_by_col[b]:
                var = orbit_of[a * size + k]
                vec[var] = vec.get(var, 0) - 1
            vec = {v: c for v, c in vec.items() if c}
            if vec:
                rows.add(tuple(sorted(vec.items())))
    return [dict(row) for row in sorted(rows)]
