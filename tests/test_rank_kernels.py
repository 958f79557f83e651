"""Differential tests: the rank-table kernels against tuple-level references.

``reference`` holds tuple-walking versions of theta, eta, is_special, the
matmul conjugation, the phi-sum reconstruction, the restriction, the
G/H/S predicates with their witnesses, the place-permutation orbit table,
the duality oracles' live orbits, slice equations and psi rows and the
initialisation; every property here asserts that the rank-table
code gives the same answer on random invariants and on perturbations of
them.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference as ref

from swdual import diagrams as dg
from swdual import extension as ex
from swdual import indices as ix
from swdual import invariants as iv
from swdual import patterns as pt
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import Ring, sparse_rank

CELLS = [(2, 2), (3, 2), (3, 3), (4, 2)]
# the membership kernels also at degree 0 and 1 and at n = 1
MEMBERSHIP_CELLS = CELLS + [(1, 1), (1, 2), (2, 0), (2, 1), (3, 1)]
RINGS = [Ring.parse(name) for name in ("z/6", "z", "q")]
SUM_RINGS = RINGS + [Ring.parse("z/4")]
# the reconstruction check rebuilds on the live orbits below degree n - 1
RECONSTRUCTION_CELLS = CELLS + [(3, 1), (4, 1), (5, 2), (5, 3)]
# cells (n, r) of the initialised matrix, one degree above its input
INITIALISE_CELLS = CELLS + [(1, 1), (2, 3), (4, 4)]

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def invariants(draw, cells=CELLS):
    """A random integer combination of permutation powers, over a random
    ring, at a random cell."""
    n, r = draw(st.sampled_from(cells))
    ring = draw(st.sampled_from(RINGS))
    coeffs = {w: ring.from_int(draw(st.integers(-3, 3))) for w in ix.all_permutations(n)}
    return ref.reconstruct(n, r, ring, coeffs)


@st.composite
def perturbed(draw, cells=CELLS):
    """An invariant with one entry moved by a nonzero amount."""
    a = draw(invariants(cells))
    pos = draw(st.integers(0, len(a.data) - 1))
    delta = draw(st.integers(1, 5))
    data = list(a.data)
    data[pos] = a.ring.add(data[pos], a.ring.from_int(delta))
    return type(a)(a.n, a.r, a.ring, data)


@st.composite
def orbit_perturbed(draw, cells=MEMBERSHIP_CELLS):
    """An invariant moved by one nonzero amount on every pair (u.s, v.s) of
    the place-permutation orbit of a random pair (u, v): S still holds,
    while G can break, and H too when u and v differ in value type."""
    a = draw(invariants(cells))
    idxs = ix.all_indices(a.n, a.r)
    u, v = draw(st.sampled_from(idxs)), draw(st.sampled_from(idxs))
    delta = a.ring.from_int(draw(st.integers(1, 5)))
    orbit = {
        (ref.act_right(u, s), ref.act_right(v, s))
        for s in itertools.permutations(range(1, a.r + 1))
    }
    data = list(a.data)
    for x, y in orbit:
        pos = ix.index_rank(a.n, x) * a.size + ix.index_rank(a.n, y)
        data[pos] = a.ring.add(data[pos], delta)
    return type(a)(a.n, a.r, a.ring, data)


@st.composite
def s_broken(draw, cells=CELLS):
    """An invariant with the entry at one pair (u, v) of equal value types
    moved by a nonzero amount: H still holds, S breaks unless the orbit of
    (u, v) is that pair alone."""
    a = draw(invariants(cells))
    idxs = ix.all_indices(a.n, a.r)
    u = draw(st.sampled_from(idxs))
    v = draw(st.sampled_from([x for x in idxs if ix.value_type(x) == ix.value_type(u)]))
    pos = ix.index_rank(a.n, u) * a.size + ix.index_rank(a.n, v)
    data = list(a.data)
    data[pos] = a.ring.add(data[pos], a.ring.from_int(draw(st.integers(1, 5))))
    return type(a)(a.n, a.r, a.ring, data)


@st.composite
def h_broken(draw, cells=MEMBERSHIP_CELLS):
    """An invariant plus c times the all-ones matrix, c nonzero: every slice
    minor of the all-ones matrix has all its sums n, so S and G still hold
    and only H breaks (wherever two value types differ)."""
    a = draw(invariants(cells))
    c = a.ring.from_int(draw(st.integers(1, 5)))
    return type(a)(a.n, a.r, a.ring, [a.ring.add(x, c) for x in a.data])


@st.composite
def place_one_broken(draw, cells=CELLS):
    """An invariant plus X (x) I, X a random n x n matrix and I the identity
    of degree r-1: the slices at every place but the first stay balanced,
    so when S breaks, G breaks at place 1 alone (unless X is balanced)."""
    a = draw(invariants(cells))
    n, ring = a.n, a.ring
    x = tn.TensorMatrix(n, 1, ring, [ring.from_int(draw(st.integers(0, 2))) for _ in range(n * n)])
    return a.add(ref.kronecker(x, tn.TensorMatrix.identity(n, a.r - 1, ring)))


@st.composite
def matrices(draw, cells=CELLS + [(2, 1), (3, 1)]):
    """A matrix with random small entries over a random ring."""
    n, r = draw(st.sampled_from(cells))
    ring = draw(st.sampled_from(SUM_RINGS))
    values = draw(st.lists(st.integers(-7, 7), min_size=n ** (2 * r), max_size=n ** (2 * r)))
    return tn.TensorMatrix(n, r, ring, [ring.from_int(v) for v in values])


def tags(n):
    return st.tuples(st.integers(1, n), st.integers(1, n))


@PROPERTY
@given(st.data())
def test_theta_matches_reference(data):
    c = data.draw(invariants([(2, 2), (2, 3), (3, 2), (3, 3)]))
    p, q = data.draw(tags(c.n + 1))
    assert iv.theta(c, p, q) == ref.theta(c, p, q)


@PROPERTY
@given(st.data())
def test_eta_matches_reference(data):
    a = data.draw(st.one_of(invariants(), perturbed()))
    p, q = data.draw(tags(a.n))
    assert iv.eta(a, p, q) == ref.eta(a, p, q)


@PROPERTY
@given(st.data())
def test_is_special_matches_reference(data):
    a = data.draw(st.one_of(invariants(), perturbed()))
    i, j = data.draw(tags(a.n))
    special = iv.theta(iv.eta(a, i, j), i, j)
    assert iv.is_special(a, i, j) == ref.is_special(a, i, j)
    assert iv.is_special(special, i, j) and ref.is_special(special, i, j)


@PROPERTY
@given(st.data())
def test_relabel_matches_matmul_conjugation(data):
    a = data.draw(st.one_of(invariants(), perturbed()))
    w = data.draw(st.permutations(range(1, a.n + 1)))
    assert pt.relabel(a, tuple(w)) == ref.conjugate(a, tuple(w))
    tau = pt.swap_perm(a.n, data.draw(st.integers(1, a.n)))
    assert pt.relabel(a, tau) == ref.conjugate(a, tau)


@PROPERTY
@given(st.data())
def test_reconstruction_check_matches_phi_sum(data):
    n, r = data.draw(st.sampled_from(RECONSTRUCTION_CELLS))
    ring = data.draw(st.sampled_from(RINGS))
    perms = data.draw(st.lists(st.permutations(range(1, n + 1)), max_size=4))
    coeffs = {tuple(w): ring.from_int(data.draw(st.integers(-3, 3))) for w in perms}
    values = [coeffs.get(w, ring.zero) for w in ex._express_order(n, r)]
    a = ref.reconstruct(n, r, ring, coeffs)
    ex._check_reconstruction(a, values)  # the exact sum is accepted
    pos = data.draw(st.integers(0, len(a.data) - 1))
    data_off = list(a.data)
    data_off[pos] = ring.add(data_off[pos], ring.one)
    with pytest.raises(ex.NotInSpanError):
        ex._check_reconstruction(type(a)(n, r, ring, data_off), values)


def expected_report(a, stop_early):
    """The report of ``check_membership(a, stop_early)``, derived from the
    tuple-level predicates: H, then S, then G, and with ``stop_early`` no
    predicate evaluated after the first failing one."""
    in_g, in_h, in_s, witnesses = ref.membership(a)
    if stop_early and not in_h:
        in_s = in_g = True
    elif stop_early and not in_s:
        in_g = True
    violation = None
    if not in_h or not in_s:
        kind = "H" if not in_h else "S"
        u, v = witnesses[kind]
        violation = {"kind": kind, "row": ix.format_index(u), "col": ix.format_index(v)}
    elif not in_g:
        alpha, p, q = witnesses["G"]
        violation = {
            "kind": "G", "alpha": alpha, "p": ix.format_index(p), "q": ix.format_index(q),
        }
    return {
        "in_G": in_g, "in_H": in_h, "in_S": in_s, "in_E": in_g and in_h and in_s,
        "first_violation": violation,
    }


@settings(PROPERTY, max_examples=250)
@example(tn.TensorMatrix(2, 0, RINGS[0], [5]))
@example(tn.TensorMatrix(3, 0, RINGS[2], [RINGS[2].from_int(-2)]))
@example(tn.TensorMatrix(1, 2, RINGS[1], [7]))
@given(st.one_of(
    invariants(MEMBERSHIP_CELLS),
    perturbed(MEMBERSHIP_CELLS),
    orbit_perturbed(),
    s_broken(),
    h_broken(),
    place_one_broken(),
))
def test_membership_matches_tuple_predicates(a):
    for stop_early in (False, True):
        report = iv.check_membership(a, stop_early=stop_early)
        assert report.to_json() == expected_report(a, stop_early)


@PROPERTY
@given(st.data())
def test_restrict_and_sums_match_entrywise_ring_sums(data):
    a = data.draw(matrices())
    others = [
        tn.TensorMatrix(a.n, a.r, a.ring, [a.ring.from_int(v) for v in values])
        for values in data.draw(st.lists(
            st.lists(st.integers(-7, 7), min_size=len(a.data), max_size=len(a.data)),
            min_size=1, max_size=3,
        ))
    ]
    ring = a.ring
    # reprs compare the raw types too: Fraction over Q, int elsewhere
    assert repr(iv._restrict(a).data) == repr(ref.restrict(a).data)
    terms = [a] + others
    expected = [ring.sum(values) for values in zip(*(m.data for m in terms))]
    assert repr(tn.matrix_sum(terms).data) == repr(expected)
    b = others[0]
    assert repr(a.add(b).data) == repr(list(map(ring.add, a.data, b.data)))
    assert repr(a.sub(b).data) == repr(list(map(ring.sub, a.data, b.data)))


def test_invariants_pass_every_predicate():
    for n, r in CELLS:
        for ring in RINGS:
            perms = ix.all_permutations(n)
            a = ref.reconstruct(n, r, ring, {w: ring.from_int(k) for k, w in enumerate(perms)})
            assert ref.membership(a)[:3] == (True, True, True)
            assert iv.check_membership(a).in_E
            assert repr(iv.restrict(a).data) == repr(ref.restrict(a).data)


def assert_same_row_space(kept, oracle):
    """Every kept row is an oracle row, and the kept rows, the oracle rows
    and their union have one rank over Q, Z/2 and Z/3: one row space."""
    kept_keys = [tuple(sorted(row.items())) for row in kept]
    oracle_keys = {tuple(sorted(row.items())) for row in oracle}
    assert kept_keys == sorted(set(kept_keys))  # sorted and deduplicated
    assert oracle_keys.issuperset(kept_keys)
    union = [dict(key) for key in sorted(oracle_keys.union(kept_keys))]
    for ring in (Ring.rationals(), Ring.modular(2), Ring.modular(3)):
        rank = sparse_rank(ring, kept)
        assert sparse_rank(ring, oracle) == sparse_rank(ring, union) == rank


@pytest.mark.parametrize("n,r", [(3, 2), (4, 3), (3, 4)])
def test_last_place_slice_equations_are_complete(n, r):
    orbit_of, _, live = vf._live_orbits(n, r)
    assert_same_row_space(vf._slice_equations(n, r, orbit_of, live),
                          ref.slice_equations_all_places(n, r, orbit_of, live))


@pytest.mark.parametrize("n,r", [(5, 3), (4, 4), (6, 2), (2, 4), (2, 1), (1, 3)])
def test_slice_equations_on_context_orbits_match_every_context(n, r):
    for tag in (None, (n, n)):
        orbit_of, _, live = vf._live_orbits(n, r, tag)
        assert_same_row_space(vf._slice_equations(n, r, orbit_of, live),
                              ref.slice_equations_all_contexts(n, r, orbit_of, live))


@pytest.mark.parametrize("n,r", [(4, 3), (5, 3), (3, 3), (2, 4), (1, 3)])
def test_psi_rows_by_coarsening_match_the_filter_scan(n, r):
    words = dg.restricted_growth_words(2 * r, n)
    got = list(vf._psi_rows(n, r, words, dg.restricted_growth_words(2 * r, 2 * r)))
    want = ref.psi_rows_filter(r, words)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]


@pytest.mark.parametrize("ring", SUM_RINGS, ids=lambda ring: ring.name)
@pytest.mark.parametrize("n,r", INITIALISE_CELLS)
@settings(PROPERTY, max_examples=3)
@given(data=st.data())
def test_initialise_matches_tuple_walk(n, r, ring, data):
    coeffs = {w: ring.from_int(data.draw(st.integers(-3, 3))) for w in ix.all_permutations(n)}
    b = ref.reconstruct(n, r - 1, ring, coeffs)
    assert repr(ex.initialise(b)) == repr(ref.initialise(b))


@pytest.mark.parametrize("n,r", [(1, 3), (2, 2), (3, 3), (4, 3), (5, 2), (3, 4)])
def test_orbit_table_matches_permutation_walk(n, r):
    orbit_of, leads = ix.omega_orbits(n, r)
    assert (orbit_of, ref.lead_pairs(n, r, leads)) == ref.omega_orbits(n, r)


LIVE_CELLS = [(n, r) for n in range(1, 6) for r in range(1, 4)] + [(3, 4), (4, 4), (6, 2)]


@pytest.mark.parametrize("n,r", LIVE_CELLS)
def test_live_orbits_match_the_tuple_walk(n, r):
    orbit_of, reps = ref.omega_orbits(n, r)
    for tag in (None, (n, n), (n, 1), (1, 2)):
        got_of, leads, live = vf._live_orbits(n, r, tag)
        assert (got_of, ref.lead_pairs(n, r, leads)) == (orbit_of, reps)
        assert live == ref.live_orbits(reps, tag)
