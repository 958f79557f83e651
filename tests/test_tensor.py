import itertools
import math
import random

import pytest

import reference as ref

from swdual import diagrams as dg
from swdual import indices as ix
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import Ring

Q = Ring.rationals()
Z = Ring.integers()
Z6 = Ring.modular(6)


def test_psi_of_p_alpha_is_identity_kron_j_kron_identity():
    n, r = 2, 3
    for alpha in (1, 2, 3):
        m = tn.psi(ref.generator_p(r, alpha), n, Q)
        factors = [tn.TensorMatrix.identity(n, 1, Q)] * r
        factors[alpha - 1] = tn.TensorMatrix(n, 1, Q, [Q.one] * (n * n))
        expected = factors[0]
        for f in factors[1:]:
            expected = ref.kronecker(expected, f)
        assert m == expected


def test_psi_of_pp_is_diagonal_value_match():
    n, r = 3, 2
    m = tn.psi(ref.generator_pp(r, 1, 2), n, Q)
    for i in ix.all_indices(n, r):
        for j in ix.all_indices(n, r):
            want = Q.one if i == j and i[0] == i[1] else Q.zero
            assert m.get(i, j) == want


def test_psi_identity_diagram():
    assert tn.psi(ref.identity_diagram(2), 3, Q) == tn.TensorMatrix.identity(3, 2, Q)


def test_phi_entries():
    w = (2, 1)
    m = tn.phi(w, 2, 1, Q)
    assert m.get((2,), (1,)) == Q.one and m.get((1,), (2,)) == Q.one
    assert m.get((1,), (1,)) == Q.zero
    m2 = tn.phi(w, 2, 2, Q)
    assert m2.get((2, 2), (1, 1)) == Q.one
    assert tn.phi(ix.perm_identity(3), 3, 2, Q) == tn.TensorMatrix.identity(3, 2, Q)
    with pytest.raises(ValueError):
        tn.phi((1, 2), 3, 1, Q)


def test_phi_inverse_and_kronecker_power():
    w = (3, 1, 2)
    assert tn.matmul(tn.phi(w, 3, 2, Q), tn.phi(ix.perm_inverse(w), 3, 2, Q)) == (
        tn.TensorMatrix.identity(3, 2, Q)
    )
    p = ref.phi(w, 3, 1, Q)
    assert ref.kronecker(p, p) == tn.phi(w, 3, 2, Q)


def test_matmul_over_z6():
    ones = tn.TensorMatrix(2, 1, Z6, [Z6.one] * 4)
    twos = tn.matmul(ones, ones)
    assert all(v == 2 for v in twos.data)


def test_left_right_actions():
    rng = random.Random(1)
    n, r = 3, 2
    a = tn.TensorMatrix(n, r, Q, [Q.from_int(rng.randrange(-3, 4)) for _ in range(81)])
    assert tn.matmul(tn.phi(ix.perm_identity(n), n, r, Q), a) == a
    w, v = (2, 3, 1), (3, 1, 2)
    pw, pv = tn.phi(w, n, r, Q), tn.phi(v, n, r, Q)
    left = tn.matmul(pw, a)
    winv = ix.perm_inverse(w)
    for i in ix.all_indices(n, r):
        for j in ix.all_indices(n, r):
            assert left.get(i, j) == a.get(ix.act_left(winv, i), j)
    assert tn.matmul(left, pv) == tn.matmul(pw, tn.matmul(a, pv))


def test_representation_law_exhaustive_r2():
    """psi(d1) psi(d2) = n^k psi(d3) over all 225 diagram pairs, two rings."""
    diagrams = dg.enumerate_diagrams(2)
    for n in (2, 3):
        for ring in (Q, Z6):
            mats = {d: tn.psi(d, n, ring) for d in diagrams}
            for d1 in diagrams:
                for d2 in diagrams:
                    out = ref.multiply(d1, d2)
                    got = tn.matmul(mats[d1], mats[d2])
                    want = ref.psi_scaled(out, n, ring)
                    assert got == want, (n, ring.name, d1.format(), d2.format())


def test_bimodule_commutation():
    exhaustive = [(2, 1), (2, 2), (3, 1), (3, 2)]
    for n, r in exhaustive:
        for w in ix.all_permutations(n):
            pw = tn.phi(w, n, r, Q)
            for d in dg.enumerate_diagrams(r):
                assert ref.commutes(pw, tn.psi(d, n, Q)), (n, r, w, d.format())
    rng = random.Random(3)
    for n, r, trials in [(3, 3, 30), (4, 2, 40)]:
        diagrams = dg.enumerate_diagrams(r)
        perms = ix.all_permutations(n)
        for _ in range(trials):
            w = rng.choice(perms)
            d = rng.choice(diagrams)
            assert ref.commutes(tn.phi(w, n, r, Q), tn.psi(d, n, Q))


def test_phi_is_a_homomorphism():
    for n in (2, 3, 4):
        for r in (1, 2):
            perms = ix.all_permutations(n)
            for w1 in perms:
                for w2 in perms:
                    assert tn.matmul(tn.phi(w1, n, r, Q), tn.phi(w2, n, r, Q)) == (
                        tn.phi(ref.perm_compose(w1, w2), n, r, Q)
                    )


@pytest.mark.parametrize("n,r", [(4, 3), (5, 2), (3, 2)])
@pytest.mark.parametrize("ring", [Z6, Z, Q], ids=["z/6", "z", "q"])
def test_phi_sum_is_the_dense_sum(n, r, ring):
    for seed in range(3):
        rng = random.Random(seed)
        coeffs = {w: ring.from_int(rng.randrange(-3, 4)) for w in ix.all_permutations(n)}
        dense = ref.reconstruct(n, r, ring, coeffs)
        assert tn.phi_sum(coeffs, n, r, ring) == dense
        # random_invariant draws the same coefficients in the same order
        assert vf.random_invariant(n, r, ring, random.Random(seed)) == dense


@pytest.mark.parametrize("rank", range(5))
def test_psi_and_its_fixed_last_restriction_match_the_definition(rank):
    """Every diagram of the rank, at every n with n^(2 rank) <= 4096.  The
    restriction to the v_n-capped subspace is psi_positions at rank - 1,
    which the half commutant reads."""
    for n in itertools.takewhile(lambda n: n ** (2 * rank) <= 4096, range(1, 65)):
        for d in dg.enumerate_diagrams(rank):
            hits = ref.psi_support(d, n)
            for ring in (Q, Z6):
                want = [ring.one if hit else ring.zero for hit in hits]
                assert tn.psi(d, n, ring).data == want, (n, d.format())
            if rank:
                hits = ref.psi_support(d, n, fixed_last=True)
                want = [pos for pos, hit in enumerate(hits) if hit]
                assert sorted(tn.psi_positions(d, n, rank - 1)) == want, (n, d.format())


def test_half_diagrams_fix_the_subspace():
    """psi of a half diagram maps the v_n-capped subspace into itself."""
    n, r = 3, 2
    sub = {i + (n,) for i in ix.all_indices(n, r)}
    for d in dg.enumerate_diagrams(r + 1):
        if not dg.is_half_algebra_member(d):
            continue
        m = tn.psi(d, n, Q)
        for i in sub:
            for j in ix.all_indices(n, r + 1):
                if j not in sub and m.get(i, j) != Q.zero:
                    raise AssertionError(
                        "half diagram %s leaks off the subspace" % d.format()
                    )


def test_scalar_degree_zero():
    m = tn.TensorMatrix.scalar(4, Q, Q.from_int(7))
    assert m.size == 1 and m.get((), ()) == Q.from_int(7)
    assert tn.phi((2, 1), 2, 0, Q) == tn.TensorMatrix.scalar(2, Q, Q.one)


def test_shape_and_ring_mismatch_errors():
    a = tn.TensorMatrix.identity(2, 1, Q)
    b = tn.TensorMatrix.identity(2, 2, Q)
    with pytest.raises(tn.ShapeMismatchError):
        a.add(b)
    c = tn.TensorMatrix.identity(2, 1, Z6)
    with pytest.raises(ValueError):
        a.add(c)


def test_json_round_trip():
    rng = random.Random(8)
    for ring in (Q, Z6, Ring.integers()):
        m = tn.TensorMatrix(
            2, 2, ring, [ring.from_int(rng.randrange(-5, 6)) for _ in range(16)]
        )
        doc = tn.matrix_to_json(m)
        assert doc["ring"] == ring.name
        assert tn.matrix_from_json(doc) == m


def test_json_entries_equal_one_parse_per_entry():
    rng = random.Random(9)
    spellings = ["1/2", " 2/4", "-3", "0", "6/-4", "7 ", "-0", "12"]
    for ring in (Q, Z6, Ring.integers()):
        texts = [s for s in spellings if ring == Q or "/" not in s]
        rows = [[rng.choice(texts) for _ in range(9)] for _ in range(9)]
        m = tn.matrix_from_json({"n": 3, "r": 2, "ring": ring.name, "rows": rows})
        assert m.data == [ring.parse_value(v) for row in rows for v in row]


def test_json_golden_file():
    import json
    import os

    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "matrix_psi_p1_n2.json"
    )
    with open(path) as fh:
        doc = json.load(fh)
    m = tn.psi(ref.generator_p(2, 1), 2, Q)
    assert tn.matrix_to_json(m) == doc["matrix"]
    assert tn.matrix_from_json(doc["matrix"]) == m


def test_json_rows_over_the_cap_are_refused_before_the_shape_check():
    # the cap is checked on the row count first, so a huge r is never
    # raised to a power
    doc = {"n": 3, "r": 10**12, "ring": "q", "rows": [[]] * (math.isqrt(ix.MAX_HELD) + 1)}
    with pytest.raises(ix.CapExceeded):
        tn.matrix_from_json(doc)
    with pytest.raises(tn.ShapeMismatchError):
        tn.matrix_from_json(doc, unsafe_large=True)
    small = {"n": 3, "r": 10**12, "ring": "q", "rows": [["1"] * 3] * 3}
    with pytest.raises(tn.ShapeMismatchError):
        tn.matrix_from_json(small)
    for n, r in [(1, 10**12), (0, 1), (2, -1), ("2", 1)]:
        with pytest.raises(tn.ShapeMismatchError):
            tn.matrix_from_json({"n": n, "r": r, "ring": "q", "rows": [["1"] * 2] * 2})


def test_json_cap_is_overridable(monkeypatch):
    m = tn.TensorMatrix.identity(3, 1, Q)
    doc = tn.matrix_to_json(m)
    monkeypatch.setattr(ix, "MAX_HELD", 8)  # 3 rows hold 9 entries
    with pytest.raises(ix.CapExceeded):
        tn.matrix_from_json(doc)
    assert tn.matrix_from_json(doc, unsafe_large=True) == m


def test_power_within_stops_at_the_bound():
    assert tn.power_within(2, 10, 1024) == 1024
    assert tn.power_within(2, 11, 1024) is None
    assert tn.power_within(3, 10**12, 1024) is None  # returns at once
    assert tn.power_within(1, 10**12, 5) == 1
    assert tn.power_within(7, 0, 5) == 1
