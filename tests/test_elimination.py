"""Differential tests for the sparse elimination engine and the duality rows.

Ranks are compared with the largest nonzero minor (cofactor determinants),
and nullspace bases are characterised without the engine: annihilated by
the rows, n_vars - rank of them, and each one is 1 at its own free variable
and 0 at every other free one, where a column is free when it does not
raise the minor rank of the columns left of it.  The psi classes and rows
of the duality oracles are compared with the dense-scan rows in
``reference``, and the span rows on tower coordinates with the tower of
each phi(w) and, by rank, with the live-orbit span rows there, which are
compared with the act_left rows.  The minimum-fill rank is compared
with the minor rank and with the leftmost echelon form.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref
from oracle import solve_linear_system_over_field
from reference import determinant

from swdual import diagrams as dg
from swdual import extension as ex
from swdual import indices as ix
from swdual import rings as rg
from swdual import tensor as tn
from swdual import verify as vf
from swdual.invariants import check_membership
from swdual.rings import Ring

Q = Ring.rationals()
FIELDS = [Q] + [Ring.modular(p) for p in (2, 3, 7)]

# the cells of acceptance criterion 2
DUALITY_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """A field and a random integer matrix with entries in -3..3, each row
    scaled by 1, 2, 3 or 6 so that leads are often not units; over Q rows
    are sometimes divided by 2, 3 or 5 so that denominators get cleared."""
    ring = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(m):
        scale = draw(st.sampled_from([1, 2, 3, 6]))
        den = draw(st.sampled_from([1, 2, 3, 5])) if ring is Q else 1
        row = [scale * draw(st.integers(-3, 3)) for _ in range(n)]
        rows.append([Fraction(x, den) if ring is Q else ring.from_int(x) for x in row])
    return ring, rows


def minor_rank(ring, rows, n_cols=None):
    """The size of the largest nonzero minor."""
    n_cols = len(rows[0]) if n_cols is None else n_cols
    for k in range(min(len(rows), n_cols), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(n_cols), k):
                if determinant(ring, [[rows[i][j] for j in cs] for i in rs]) != ring.zero:
                    return k
    return 0


def free_columns(ring, rows, n_cols):
    """Columns that do not raise the minor rank of the columns before them."""
    free, prev = [], 0
    for c in range(n_cols):
        k = minor_rank(ring, rows, c + 1)
        if k == prev:
            free.append(c)
        prev = k
    return free


def dot(ring, row, vec):
    return ring.sum(ring.mul(x, y) for x, y in zip(row, vec))


def assert_reduced_nullspace(ring, rows, basis, n_vars, free):
    """``basis`` is the reduced nullspace basis over the given free columns."""
    assert len(basis) == len(free)
    for vec, own in zip(basis, free):
        assert len(vec) == n_vars
        assert all(dot(ring, row, vec) == ring.zero for row in rows)
        assert [vec[c] for c in free] == [ring.one if c == own else ring.zero for c in free]
        if ring.kind == "q":
            assert all(type(v) is Fraction for v in vec)


@PROPERTY
@given(matrices())
def test_rank_is_the_largest_nonzero_minor(case):
    ring, rows = case
    want = minor_rank(ring, rows)
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    assert rg.sparse_rank(ring, sparse) == want
    assert vf._sparse_rank(ring, sparse) == want


@st.composite
def sparse_systems(draw, max_rows=6, max_cols=6):
    """Sparse integer rows of +-1 entries, of mixed entries or of non-unit
    entries only, so that over Q both the plain step and the fraction-free
    one run."""
    n_cols = draw(st.integers(2, max_cols))
    rows = []
    for _ in range(draw(st.integers(2, max_rows))):
        cols = draw(st.sets(st.integers(0, n_cols - 1), min_size=1, max_size=4))
        values = draw(st.sampled_from([(2, -3, 4, 6), (1, -1, 2, -3), (1, -1)]))
        rows.append({c: draw(st.sampled_from(values)) for c in sorted(cols)})
    return rows, n_cols


@PROPERTY
@given(sparse_systems())
def test_minimum_fill_rank_is_the_largest_nonzero_minor(case):
    rows, n_cols = case
    before = [dict(row) for row in rows]
    for ring in [Q] + [Ring.modular(p) for p in (2, 3, 5)]:
        dense = [[ring.from_int(row.get(c, 0)) for c in range(n_cols)] for row in rows]
        assert rg.sparse_rank(ring, rows) == minor_rank(ring, dense)
        assert rg.sparse_rank(ring, rows) == len(rg.sparse_echelon(ring, rows))
    assert rows == before  # the input is not modified


@pytest.mark.parametrize("n,r", DUALITY_GRID)
@pytest.mark.parametrize("ring", [Q, Ring.modular(3)], ids=["q", "z/3"])
def test_both_pivot_rules_agree_on_the_duality_systems(n, r, ring):
    orbit_of, _, live = vf._live_orbits(n, r)
    systems = [
        vf._slice_equations(n, r, orbit_of, live),
        ref.span_rows(n, r, ix.all_permutations(n), orbit_of, live),
        vf._tower_rows(n, r, ix.all_permutations(n)),
        list(vf._psi_rows(n, r, dg.restricted_growth_words(2 * r, n),
                          dg.restricted_growth_words(2 * r, 2 * r))),
    ]
    for rows in systems:
        assert rg.sparse_rank(ring, rows) == len(rg.sparse_echelon(ring, rows))


@PROPERTY
@given(matrices())
def test_integer_rows_enter_directly(case):
    ring, rows = case
    ints = [{c: int(v * 30) for c, v in enumerate(row) if v} for row in rows]
    raw = [{c: ring.from_int(x) for c, x in row.items()} for row in ints]
    assert rg.sparse_rank(ring, ints) == rg.sparse_rank(ring, raw)
    assert rg.sparse_nullspace(ring, ints, len(rows[0])) == rg.sparse_nullspace(
        ring, raw, len(rows[0]))


@PROPERTY
@given(matrices())
def test_nullspace_is_the_reduced_basis(case):
    ring, rows = case
    n_vars = len(rows[0])
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    before = [dict(row) for row in sparse]
    basis = rg.sparse_nullspace(ring, sparse, n_vars)
    assert sparse == before  # the input is not modified
    free = free_columns(ring, rows, n_vars)
    assert len(free) == n_vars - minor_rank(ring, rows)
    assert_reduced_nullspace(ring, rows, basis, n_vars, free)


@PROPERTY
@given(matrices(), st.data())
def test_solve_gives_the_particular_solution_with_free_variables_zero(case, data):
    ring, rows = case
    n_cols = len(rows[0])
    if data.draw(st.booleans()):
        x = [ring.from_int(data.draw(st.integers(-3, 3))) for _ in range(n_cols)]
        b = [dot(ring, row, x) for row in rows]
    else:
        b = [ring.from_int(data.draw(st.integers(-3, 3))) for _ in rows]
    out = solve_linear_system_over_field(ring, rows, b)
    aug = [row + [rhs] for row, rhs in zip(rows, b)]
    if out is None:
        assert minor_rank(ring, aug) > minor_rank(ring, rows)
        return
    particular, basis = out
    assert [dot(ring, row, particular) for row in rows] == b
    free = free_columns(ring, rows, n_cols)
    assert all(particular[c] == ring.zero for c in free)
    assert_reduced_nullspace(ring, rows, basis, n_cols, free)


@pytest.mark.parametrize("n,r", [(3, 2), (3, 3)])
@pytest.mark.parametrize("ring", [Q, Ring.modular(5)], ids=["q", "z/5"])
def test_centraliser_basis_is_the_reduced_nullspace(n, r, ring):
    dim, basis = vf.centraliser_dimension(n, r, ring, with_basis=True)
    assert dim == len(basis) == vf.span_dimension_w(n, r, ring)
    if ring is Q:
        assert dim == vf.closed_form_centraliser_dimension(n, r)
    orbit_of, leads, live = vf._live_orbits(n, r)
    reps = ref.lead_pairs(n, r, leads)
    equations = [
        [ring.from_int(row.get(var, 0)) for var in range(len(live))]
        for row in vf._slice_equations(n, r, orbit_of, live)
    ]
    vectors = []
    for m in basis:
        assert check_membership(m).in_E
        vec = [ring.zero] * len(live)
        for oid, var in live.items():
            vec[var] = m.get(*reps[oid])
        vectors.append(vec)
    # the free variables are where each vector has its last nonzero entry
    free = [max(c for c, v in enumerate(vec) if v != ring.zero) for vec in vectors]
    assert free == sorted(set(free))
    assert_reduced_nullspace(ring, equations, vectors, len(live), free)
    assert all(vec[c] == ring.zero for vec, own in zip(vectors, free)
               for c in range(own + 1, len(live)))


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (4, 2), (3, 3), (2, 3), (1, 2)])
@pytest.mark.parametrize("ring", [Q, Ring.modular(3)], ids=["q", "z/3"])
def test_psi_rows_match_dense_scan(n, r, ring):
    # one restricted-growth word per class of the reference's pair scan
    words = dg.restricted_growth_words(2 * r, n)
    class_of = ref.wn_orbit_classes(n, r)
    pairs = [i + j for i in ix.all_indices(n, r) for j in ix.all_indices(n, r)]
    first = {}
    for pos, c in enumerate(class_of):
        first.setdefault(c, pairs[pos])

    def pattern(word):
        relabel = {}
        return tuple(relabel.setdefault(v, len(relabel)) for v in word)

    assert words == [pattern(w) for w in words]  # restricted growth
    assert sorted(words) == sorted(pattern(w) for w in first.values())
    assert len(words) == vf.wn_end_dimension(n, r)
    column = {c: words.index(pattern(w)) for c, w in first.items()}
    dense = [{column[c]: 1 for c in row} for row in ref.psi_rows_dense(n, r, ring)]
    rows = list(vf._psi_rows(n, r, words, dg.restricted_growth_words(2 * r, 2 * r)))
    assert rows == dense
    assert rg.sparse_rank(ring, rows) == rg.sparse_rank(ring, dense)


@pytest.mark.parametrize("n,r", [(4, 3), (5, 2)])
def test_span_rows_match_act_left(n, r):
    orbit_of, leads, live = vf._live_orbits(n, r)
    reps = ref.lead_pairs(n, r, leads)
    perms = ix.all_permutations(n)
    for group in (perms, [w for w in perms if w[n - 1] == n]):
        assert ref.span_rows(n, r, group, orbit_of, live) == ref.span_rows_act_left(
            n, r, group, reps, live)


@pytest.mark.parametrize("n,r", [(3, 2), (4, 3), (5, 2)])
@pytest.mark.parametrize("ring", [Ring.integers(), Ring.modular(6)], ids=["z", "z/6"])
def test_tower_rows_are_the_tower_coordinates_of_phi(n, r, ring):
    perms = ix.all_permutations(n)
    width = vf.closed_form_centraliser_dimension(n, r)
    for w, row in zip(perms, vf._tower_rows(n, r, perms), strict=True):
        want = ex._tower(tn.phi(w, n, r, ring))
        assert len(want) == width
        assert [row.get(c, 0) for c in range(width)] == want


@pytest.mark.parametrize("n,r", DUALITY_GRID)
@pytest.mark.parametrize("ring", [Q, Ring.modular(3)], ids=["q", "z/3"])
def test_the_psi_certificate_gives_the_rank_of_every_diagram_row(n, r, ring):
    classes = len(dg.restricted_growth_words(2 * r, n))
    assert vf.psi_side_dimensions(n, r, ring) == (classes, ref.psi_rank_by_elimination(n, r, ring))


@pytest.mark.parametrize("n,r", DUALITY_GRID)
def test_tower_rows_have_the_rank_of_the_live_orbit_rows(n, r):
    perms = ix.all_permutations(n)
    orbit_of, _, live = vf._live_orbits(n, r)
    tower = vf._tower_rows(n, r, perms)
    orbits = ref.span_rows(n, r, perms, orbit_of, live)
    for ring in (Q, Ring.modular(2), Ring.modular(3)):
        assert rg.sparse_rank(ring, tower) == rg.sparse_rank(ring, orbits)
