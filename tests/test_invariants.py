import itertools
import math
import os
import random
from fractions import Fraction

import pytest

import reference as ref

from swdual import diagrams as dg
from swdual import indices as ix
from swdual import invariants as iv
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import Ring

Q = Ring.rationals()
Z = Ring.integers()
Z6 = Ring.modular(6)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load_shape(name):
    starred = set()
    with open(os.path.join(FIXTURES, name)) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row, cols = line.split(":")
            for col in cols.split():
                starred.add((ix.parse_index(row.strip()), ix.parse_index(col)))
    return starred


# -- GDS ---------------------------------------------------------------------


def gds_value(ring, rows):
    """The common row and column sum of a square matrix, or None where
    they differ: at degree one, membership is the GDS condition."""
    m = tn.TensorMatrix(len(rows), 1, ring, [v for row in rows for v in row])
    return iv.restrict(m).data[0] if iv.is_invariant(m) else None


def test_is_gds_examples():
    n = 3
    j = [[Q.one] * n for _ in range(n)]
    assert gds_value(Q, j) == Q.from_int(n)
    perm = [[Q.zero] * n for _ in range(n)]
    for col, row in enumerate((2, 3, 1)):
        perm[row - 1][col] = Q.one
    assert gds_value(Q, perm) == Q.one
    assert gds_value(Z, [[Z.one, Z.zero], [Z.zero, Z.from_int(2)]]) is None


def gds_and_commutes_with_j(ring, rows):
    """Both sides of the lemma: M is GDS exactly when it commutes with the
    all-ones matrix J."""
    m = len(rows)
    a = tn.TensorMatrix(m, 1, ring, [v for row in rows for v in row])
    j = tn.TensorMatrix(m, 1, ring, [ring.one] * (m * m))
    return iv.is_invariant(a), ref.commutes(a, j)


def test_gds_commutation_characterisation():
    assert gds_and_commutes_with_j(Q, [[Q.one, Q.one], [Q.one, Q.one]]) == (True, True)
    bad = [[Z.from_int(1), Z.from_int(2)], [Z.from_int(3), Z.from_int(4)]]
    assert gds_and_commutes_with_j(Z, bad) == (False, False)
    # random GDS over Z/6 built from the all-ones matrix and permutations
    rng = random.Random(4)
    for _ in range(10):
        n = 4
        rows = [[Z6.from_int(rng.randrange(6))] * n for _ in range(n)]
        base = rows[0][0]
        rows = [[base] * n for _ in range(n)]
        for w in ix.all_permutations(n)[:5]:
            c = Z6.from_int(rng.randrange(6))
            for col in range(n):
                rows[w[col] - 1][col] = Z6.add(rows[w[col] - 1][col], c)
        assert gds_and_commutes_with_j(Z6, rows) == (True, True)


# -- membership --------------------------------------------------------------


def test_membership_of_permutation_powers():
    for n, r in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for w in ix.all_permutations(n):
            report = iv.check_membership(tn.phi(w, n, r, Q))
            assert report.in_E and report.first_violation is None


def test_membership_violations_reported():
    report = iv.check_membership(tn.psi(ref.generator_pp(2, 1, 2), 2, Q))
    assert not report.in_G and report.in_H and report.in_S
    assert not report.in_E

    ones = tn.TensorMatrix(2, 2, Q, [Q.one] * 16)
    report = iv.check_membership(ones)
    assert not report.in_H
    assert report.first_violation["kind"] in {"H", "G", "S"}

    doc = report.to_json()
    assert set(doc) == {"in_G", "in_H", "in_S", "in_E", "first_violation"}


def test_g_check_inserts_at_every_place():
    # M (x) I has the alpha=1 slice sums 1 and 0 at the contexts (1, 1)
    m = tn.TensorMatrix(2, 1, Z, [1, 0, 0, 0])
    a = ref.kronecker(m, tn.TensorMatrix.identity(2, 1, Z))
    assert iv.check_membership(a).in_G is False
    # symmetrised, H and S hold and the witness names the first bad slice
    report = iv.check_membership(a.add(ref.kronecker(tn.TensorMatrix.identity(2, 1, Z), m)))
    assert report.in_H and report.in_S and not report.in_G
    assert report.first_violation == {"kind": "G", "alpha": 1, "p": "1", "q": "1"}


# -- G on the sorted contexts ---------------------------------------------------

SORTED_CELLS = [(2, 4), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3)]
G_RINGS = [Z, Z6, Q]


def orbit_shifted(a, u, v, delta):
    """``a`` plus ``delta`` on every pair of the place-permutation orbit of
    (u, v): H and S still hold when u and v have one value type."""
    orbit = {
        (tuple(u[k] for k in s), tuple(v[k] for k in s))
        for s in itertools.permutations(range(a.r))
    }
    data = list(a.data)
    for x, y in orbit:
        pos = ix.index_rank(a.n, x) * a.size + ix.index_rank(a.n, y)
        data[pos] = a.ring.add(data[pos], delta)
    return tn.TensorMatrix(a.n, a.r, a.ring, data)


@pytest.mark.parametrize("ring", G_RINGS, ids=lambda ring: ring.name)
@pytest.mark.parametrize("n, r", SORTED_CELLS)
def test_g_on_the_sorted_contexts_finds_the_first_bad_minor(n, r, ring):
    rng = random.Random(97 * n + r)
    a = vf.random_invariant(n, r, ring, rng)
    contexts = iv._sorted_contexts(n, r)
    assert len(contexts) == math.comb(n + r - 2, r - 1) < n ** (r - 1)
    idxs = ix.all_indices(n, r)
    broken = 0
    for _ in range(10):
        u = rng.choice(idxs)
        v = rng.choice([x for x in idxs if ix.value_type(x) == ix.value_type(u)])
        delta = Fraction(rng.randint(1, 5), 3) if ring is Q else ring.from_int(rng.randint(1, 5))
        b = orbit_shifted(a, u, v, delta)
        full = iv._first_bad_minor(b, range(n ** (r - 1)))
        assert iv._first_bad_minor(b, contexts) == full
        report = iv.check_membership(b)
        assert report.in_H and report.in_S and report.in_G == (full is None)
        if full is not None:
            broken += 1
            assert report.first_violation == {
                "kind": "G",
                "alpha": 1,
                "p": ix.format_index(ix.index_from_rank(n, r - 1, full[0])),
                "q": ix.format_index(ix.index_from_rank(n, r - 1, full[1])),
            }
    assert broken >= 5


@pytest.mark.parametrize("ring", G_RINGS, ids=lambda ring: ring.name)
def test_g_walks_every_context_when_s_fails(ring):
    # one more at (321, 321): the context of its minor is (2,1), (3,1) or
    # (3,2) at places 1, 2, 3, never sorted, so H holds, S fails, and only
    # the walk over every context sees G fail
    n, r = 3, 3
    a = vf.random_invariant(n, r, ring, random.Random(5))
    data = list(a.data)
    pos = ix.index_rank(n, (3, 2, 1)) * (a.size + 1)
    data[pos] = ring.add(data[pos], ring.one)
    b = tn.TensorMatrix(n, r, ring, data)
    assert iv._first_bad_minor(b, iv._sorted_contexts(n, r)) is None
    assert iv._first_bad_minor(b, range(n ** (r - 1))) == (ix.index_rank(n, (3, 2)),) * 2
    report = iv.check_membership(b)
    assert report.in_H and not report.in_S and not report.in_G
    assert ref.membership(b)[:3] == (False, True, False)


# -- slices, common_b, restriction --------------------------------------------


def test_common_b_matches_lower_phi():
    n, r = 3, 2
    w = (3, 1, 2)
    a = tn.phi(w, n, r, Q)
    lower = tn.phi(w, n, r - 1, Q)
    for p in ix.all_indices(n, r - 1):
        for q in ix.all_indices(n, r - 1):
            assert ref.common_b(a, p, q) == lower.get(p, q)


def test_common_b_of_identity_and_zero():
    a = tn.TensorMatrix.identity(2, 2, Q)
    assert ref.common_b(a, (1,), (1,)) == Q.one
    assert ref.common_b(a, (1,), (2,)) == Q.zero
    z = tn.TensorMatrix(2, 2, Q)
    assert ref.common_b(z, (2,), (1,)) == Q.zero


def test_common_b_rejects_non_invariants():
    bad = tn.TensorMatrix(2, 2, Q, [Q.from_int(k) for k in range(16)])
    with pytest.raises(iv.NotInvariantError):
        ref.common_b(bad, (1,), (1,))


def test_restrict_examples():
    for n, r in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        for w in ix.all_permutations(n):
            assert iv.restrict(tn.phi(w, n, r, Q)) == tn.phi(w, n, r - 1, Q)
    gds = tn.phi((2, 1, 3), 3, 1, Q)
    assert iv.restrict(gds) == tn.TensorMatrix.scalar(3, Q, Q.one)
    assert iv.restrict(tn.TensorMatrix(3, 2, Q)).is_zero()


def test_restrict_rejects_non_invariants():
    bad = tn.TensorMatrix(2, 2, Q, [Q.from_int(k) for k in range(16)])
    with pytest.raises(iv.NotInvariantError, match="not an invariant"):
        iv.restrict(bad)
    # equal first block row, last block row and first block column sums,
    # but H fails: the identity with a +-1 square on rows 12, 22 and
    # columns 13, 23
    bad = tn.TensorMatrix.identity(3, 2, Z)
    for i, j, v in [("12", "13", 1), ("22", "23", 1), ("12", "23", -1), ("22", "13", -1)]:
        bad.data[bad.rank_of(ix.parse_index(i)) * bad.size + bad.rank_of(ix.parse_index(j))] += v
    with pytest.raises(iv.NotInvariantError,
                       match='not an invariant.*"col": "13", "kind": "H", "row": "22"'):
        iv.restrict(bad)


def test_restrict_is_linear():
    rng = random.Random(6)
    a = vf.random_invariant(3, 2, Q, rng)
    b = vf.random_invariant(3, 2, Q, rng)
    c = Q.from_int(5)
    assert iv.restrict(a.add(ref.scale(b, c))) == iv.restrict(a).add(ref.scale(iv.restrict(b), c))


def test_blocks_are_gds_with_sum_b():
    rng = random.Random(12)
    for n, r in [(3, 2), (4, 2)]:
        a = vf.random_invariant(n, r, Q, rng)
        lower = iv.restrict(a)
        for p in ix.all_indices(n, r - 1):
            for q in ix.all_indices(n, r - 1):
                minor = [
                    [a.get(p + (i,), q + (j,)) for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
                assert gds_value(Q, minor) == lower.get(p, q)


def test_duplicate_tail_entries_equal_b():
    rng = random.Random(13)
    n, r = 3, 2
    a = vf.random_invariant(n, r, Q, rng)
    lower = iv.restrict(a)
    for i in ix.all_indices(n, r):
        for j in ix.all_indices(n, r):
            if ix.value_type(i) != ix.value_type(j):
                continue
            if i[-1] in i[:-1]:
                assert a.get(i, j) == lower.get(i[:-1], j[:-1])


# -- blocks and specials -------------------------------------------------------


def test_block_extraction():
    a = tn.phi((2, 3, 1), 3, 2, Q)
    for i in range(1, 4):
        for j in range(1, 4):
            b = iv.block(a, i, j)
            for p in ix.all_indices(3, 1):
                for q in ix.all_indices(3, 1):
                    assert b.get(p, q) == a.get((i,) + p, (j,) + q)
            assert iv.is_special(b, i, j)


def test_special_tags_of_phi():
    for n, r in [(3, 2), (4, 2)]:
        for w in ix.all_permutations(n):
            m = tn.phi(w, n, r, Q)
            for j in range(1, n + 1):
                assert iv.is_special(m, w[j - 1], j)
                for i in range(1, n + 1):
                    if i != w[j - 1]:
                        assert not iv.is_special(m, i, j) or m.is_zero()


def test_identity_special_on_diagonal():
    a = tn.TensorMatrix.identity(3, 2, Q)
    for i in range(1, 4):
        assert iv.is_special(a, i, i)
    assert not iv.is_special(a, 1, 2)


def test_zero_rowcol_criterion():
    rng = random.Random(2)
    c = vf.random_invariant(2, 2, Q, rng)
    a = iv.theta(c, 3, 2)
    assert iv.zero_rowcol_implies_special(a, 3, 2)
    ident = tn.phi(ix.perm_identity(3), 3, 2, Q)
    assert not iv.zero_rowcol_implies_special(ident, 1, 2)
    z = tn.TensorMatrix(3, 2, Q)
    for i in range(1, 4):
        for j in range(1, 4):
            assert iv.zero_rowcol_implies_special(z, i, j)


def test_special_diagonal_closed_under_product():
    rng = random.Random(21)
    n, r = 3, 2
    specials = []
    for _ in range(4):
        c = vf.random_invariant(n - 1, r, Q, rng)
        specials.append(iv.theta(c, n, n))
    for x in specials:
        for y in specials:
            prod = tn.matmul(x, y)
            assert iv.is_special(prod, n, n)
            assert iv.is_invariant(prod)


def test_special_ext_form():
    rng = random.Random(31)
    n, r = 4, 2
    i0, j0 = 4, 2
    c = vf.random_invariant(n - 1, r, Q, rng)
    a = iv.theta(c, i0, j0)
    # (a) off blocks in the tagged row and column vanish
    for q in range(1, n + 1):
        if q != j0:
            assert iv.block(a, i0, q).is_zero()
    for p in range(1, n + 1):
        if p != i0:
            assert iv.block(a, p, j0).is_zero()
    # (c) the restriction is the tagged block
    assert iv.restrict(a) == iv.block(a, i0, j0)
    assert iv.is_special(iv.restrict(a), i0, j0)
    # (b) excised off blocks are special one rank down with renumbered tags
    for p in range(1, n + 1):
        if p == i0:
            continue
        for q in range(1, n + 1):
            if q == j0:
                continue
            off = iv.eta(iv.block(a, p, q), i0, j0)
            pbar = ref.collapse_avoiding(p, i0)
            qbar = ref.collapse_avoiding(q, j0)
            assert iv.is_special(off, pbar, qbar)


# -- eta / theta ---------------------------------------------------------------


def test_theta_base_case_identity():
    assert iv.theta(tn.TensorMatrix.identity(3, 1, Q), 4, 4) == (
        tn.TensorMatrix.identity(4, 1, Q)
    )


def test_theta_places_minor_and_sum():
    # the rank-one inflation puts the matrix in the (p,q)-avoiding minor,
    # the common sum at (p, q), zeros elsewhere
    c = tn.phi((2, 1, 3), 3, 1, Q)
    a = iv.theta(c, 4, 4)
    for i in range(1, 4):
        for j in range(1, 4):
            assert a.get((i,), (j,)) == c.get((i,), (j,))
    assert a.get((4,), (4,)) == Q.one
    for k in range(1, 4):
        assert a.get((4,), (k,)) == Q.zero
        assert a.get((k,), (4,)) == Q.zero


def test_eta_theta_round_trips():
    rng = random.Random(0)
    for n, r in [(3, 1), (3, 2), (4, 2)]:
        for _ in range(25):
            c = vf.random_invariant(n - 1, r, Q, rng)
            for (p, q) in [(n, n), (1, 2), (2, 1), (n, 1)]:
                a = iv.theta(c, p, q)
                assert iv.eta(a, p, q) == c
                assert iv.is_special(a, p, q)
                assert iv.is_invariant(a)
    # the excision cells of decompose at (4,3), (5,2) and (5,3), every tag
    # (n, j): theta is special and invariant, and restricts to its one block
    for n, r in [(4, 3), (5, 2), (5, 3)]:
        for ring in (Q, Z6, Z):
            c = vf.random_invariant(n - 1, r, ring, rng)
            for j in range(1, n + 1):
                a = iv.theta(c, n, j)
                assert iv.is_invariant(a)
                assert iv.is_special(a, n, j)
                assert iv.eta(a, n, j) == c
                assert iv._restrict(a) == iv.block(a, n, j)


def test_theta_eta_identity_on_specials():
    rng = random.Random(14)
    n, r = 3, 2
    c = vf.random_invariant(n - 1, r, Q, rng)
    a = iv.theta(c, 3, 1)
    assert iv.theta(iv.eta(a, 3, 1), 3, 1) == a


def test_theta_rho_commute():
    rng = random.Random(9)
    for ring in (Q, Z6):
        for n, r in [(3, 1), (3, 2), (4, 2)]:
            c = vf.random_invariant(n - 1, r, ring, rng)
            z = tn.TensorMatrix(n - 1, r, ring)
            for b, p, q in [(c, n, n), (c, 1, 1), (c, 2, n), (z, n, n)]:
                assert iv._restrict(iv.theta(b, p, q)) == iv.theta(iv.restrict(b), p, q)


# -- half algebra --------------------------------------------------------------


def half_iso_sides(a, half):
    """Whether a commutes with every restricted half diagram, and whether
    it is an invariant special with tag (n, n)."""
    commutes = all(ref.commutes(a, m) for m in half)
    return commutes, iv.is_invariant(a) and iv.is_special(a, a.n, a.n)


def half_matrices(n, r, ring):
    """psi of each half diagram of rank r + 1 on the v_n-capped subspace."""
    return [
        tn.TensorMatrix(n, r, ring, [ring.one if hit else ring.zero
                                     for hit in ref.psi_support(d, n, fixed_last=True)])
        for d in dg.enumerate_diagrams(r + 1)
        if dg.is_half_algebra_member(d)
    ]


def test_half_iso_on_permutation_powers():
    for n, r in [(3, 1), (3, 2)]:
        half = half_matrices(n, r, Q)
        for w in ix.all_permutations(n):
            a = tn.phi(w, n, r, Q)
            comm, special = half_iso_sides(a, half)
            assert comm == special == (w[n - 1] == n)
        ident = tn.TensorMatrix.identity(n, r, Q)
        assert half_iso_sides(ident, half) == (True, True)


def test_half_iso_both_ways_on_random_matrices():
    """Commuting with the half algebra is exactly being an invariant that is
    special with tag (n, n), also for matrices that are neither."""
    n, r = 3, 1
    half = half_matrices(n, r, Q)
    rng = random.Random(40)
    for _ in range(40):
        m = tn.TensorMatrix(
            n, r, Q, [Q.from_int(rng.randrange(-2, 3)) for _ in range(n ** (2 * r))]
        )
        comm, special = half_iso_sides(m, half)
        assert comm == special


# -- golden shapes -------------------------------------------------------------


@pytest.mark.parametrize(
    "name,n",
    [("shape_e22.txt", 2), ("shape_e32.txt", 3), ("shape_e42.txt", 4)],
)
def test_value_type_shapes_match_reference_tables(name, n):
    starred = {
        (i, j)
        for i in ix.all_indices(n, 2)
        for j in ix.all_indices(n, 2)
        if ix.value_type(i) == ix.value_type(j)
    }
    assert starred == load_shape(name)


def test_special_shape_matches_reference_table():
    n = 4
    starred = {
        (i, j)
        for i in ix.all_indices(n, 2)
        for j in ix.all_indices(n, 2)
        if ix.value_type(i) == ix.value_type(j)
        and ref.places_of(i, 4) == ref.places_of(j, 4)
    }
    assert starred == load_shape("shape_e42_special_44.txt")


def test_excising_special_shape_gives_lower_shape():
    special = load_shape("shape_e42_special_44.txt")
    excised = {
        (i, j) for (i, j) in special if 4 not in i and 4 not in j
    }
    assert excised == load_shape("shape_e32.txt")
