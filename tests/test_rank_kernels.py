"""Differential tests: the rank-table kernels against tuple-level references.

``reference`` holds tuple-walking versions of theta, eta, is_special, the
matmul conjugation, the phi-sum reconstruction and the G/H/S predicates;
every property here asserts that the rank-table code gives the same answer
on random invariants and on single-entry perturbations of them.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref

from swdual import extension as ex
from swdual import indices as ix
from swdual import invariants as iv
from swdual import patterns as pt
from swdual import verify as vf
from swdual.rings import Ring

CELLS = [(2, 2), (3, 2), (3, 3), (4, 2)]
RINGS = [Ring.parse(name) for name in ("z/6", "z", "q")]

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
def perturbed(draw):
    """An invariant with one entry moved by a nonzero amount."""
    a = draw(invariants())
    pos = draw(st.integers(0, len(a.data) - 1))
    delta = draw(st.integers(1, 5))
    data = list(a.data)
    data[pos] = a.ring.add(data[pos], a.ring.from_int(delta))
    return type(a)(a.n, a.r, a.ring, data)


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
    n, r = data.draw(st.sampled_from(CELLS))
    ring = data.draw(st.sampled_from(RINGS))
    perms = data.draw(st.lists(st.permutations(range(1, n + 1)), max_size=4))
    coeffs = {tuple(w): ring.from_int(data.draw(st.integers(-3, 3))) for w in perms}
    a = ref.reconstruct(n, r, ring, coeffs)
    ex._check_reconstruction(a, coeffs)  # the exact sum is accepted
    pos = data.draw(st.integers(0, len(a.data) - 1))
    data_off = list(a.data)
    data_off[pos] = ring.add(data_off[pos], ring.one)
    with pytest.raises(ex.NotInSpanError):
        ex._check_reconstruction(type(a)(n, r, ring, data_off), coeffs)


@PROPERTY
@given(st.one_of(invariants(), perturbed()))
def test_membership_matches_tuple_predicates(a):
    in_g, in_h, in_s, first_g = ref.membership(a)
    report = iv.check_membership(a)
    assert (report.in_G, report.in_H, report.in_S) == (in_g, in_h, in_s)
    if in_h and in_s and not in_g:
        alpha, p, q = first_g
        assert report.first_violation == {
            "kind": "G", "alpha": alpha,
            "p": ix.format_index(p), "q": ix.format_index(q),
        }


def test_invariants_pass_every_predicate():
    for n, r in CELLS:
        for ring in RINGS:
            perms = ix.all_permutations(n)
            a = ref.reconstruct(n, r, ring, {w: ring.from_int(k) for k, w in enumerate(perms)})
            assert ref.membership(a)[:3] == (True, True, True)
            assert iv.check_membership(a).in_E


@pytest.mark.parametrize("n,r", [(3, 2), (4, 3), (3, 4)])
def test_last_place_slice_equations_are_complete(n, r):
    orbit_of, _, live = vf._live_orbits(n, r)
    assert vf._slice_equations(n, r, orbit_of, live) == ref.slice_equations_all_places(
        n, r, orbit_of, live
    )
