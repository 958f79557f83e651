import os
import random

import pytest

from swdual import diagrams as dg
from swdual import indices as ix
from swdual import invariants as iv
from swdual import tensor as tn
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


def random_invariant(n, r, ring, rng, bound=3):
    m = tn.TensorMatrix.zeros(n, r, ring)
    for w in ix.all_permutations(n):
        c = rng.randrange(-bound, bound + 1)
        if c:
            m = m.add(tn.phi(w, n, r, ring).scale(ring.from_int(c)))
    return m


# -- GDS ---------------------------------------------------------------------


def test_is_gds_examples():
    n = 3
    j = [[Q.one] * n for _ in range(n)]
    assert iv.is_gds(Q, j) == Q.from_int(n)
    perm = [[Q.zero] * n for _ in range(n)]
    for col, row in enumerate((2, 3, 1)):
        perm[row - 1][col] = Q.one
    assert iv.is_gds(Q, perm) == Q.one
    assert iv.is_gds(Z, [[Z.one, Z.zero], [Z.zero, Z.from_int(2)]]) is None


def test_gds_commutation_characterisation():
    with pytest.raises(ValueError, match="lemma requires n > 1"):
        iv.gds_iff_commutes_with_j(Q, [[Q.one]])
    assert iv.gds_iff_commutes_with_j(Q, [[Q.one, Q.one], [Q.one, Q.one]]) == (True, True)
    bad = [[Z.from_int(1), Z.from_int(2)], [Z.from_int(3), Z.from_int(4)]]
    assert iv.gds_iff_commutes_with_j(Z, bad) == (False, False)
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
        assert iv.gds_iff_commutes_with_j(Z6, rows) == (True, True)


# -- membership --------------------------------------------------------------


def test_membership_of_permutation_powers():
    for n, r in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for w in ix.all_permutations(n):
            report = iv.check_membership(tn.phi(w, n, r, Q))
            assert report.in_E and report.first_violation is None


def test_membership_violations_reported():
    report = iv.check_membership(tn.psi(dg.generator_pp(2, 1, 2), 2, Q))
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
    a = tn.kronecker(m, tn.TensorMatrix.identity(2, 1, Z))
    assert iv.check_membership(a).in_G is False
    # symmetrised, H and S hold and the witness names the first bad slice
    report = iv.check_membership(a.add(tn.kronecker(tn.TensorMatrix.identity(2, 1, Z), m)))
    assert report.in_H and report.in_S and not report.in_G
    assert report.first_violation == {"kind": "G", "alpha": 1, "p": "1", "q": "1"}


# -- slices, common_b, restriction --------------------------------------------


def test_common_b_matches_lower_phi():
    n, r = 3, 2
    w = (3, 1, 2)
    a = tn.phi(w, n, r, Q)
    lower = tn.phi(w, n, r - 1, Q)
    for p in ix.all_indices(n, r - 1):
        for q in ix.all_indices(n, r - 1):
            assert iv.common_b(a, p, q) == lower.get(p, q)


def test_common_b_of_identity_and_zero():
    a = tn.TensorMatrix.identity(2, 2, Q)
    assert iv.common_b(a, (1,), (1,)) == Q.one
    assert iv.common_b(a, (1,), (2,)) == Q.zero
    z = tn.TensorMatrix.zeros(2, 2, Q)
    assert iv.common_b(z, (2,), (1,)) == Q.zero


def test_common_b_rejects_non_invariants():
    bad = tn.TensorMatrix(2, 2, Q, [Q.from_int(k) for k in range(16)])
    with pytest.raises(iv.NotInvariantError):
        iv.common_b(bad, (1,), (1,))


def test_restrict_examples():
    for n, r in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        for w in ix.all_permutations(n):
            assert iv.restrict(tn.phi(w, n, r, Q)) == tn.phi(w, n, r - 1, Q)
    gds = tn.phi((2, 1, 3), 3, 1, Q)
    assert iv.restrict(gds) == tn.TensorMatrix.scalar(3, Q, Q.one)
    assert iv.restrict(tn.TensorMatrix.zeros(3, 2, Q)).is_zero()


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
    a = random_invariant(3, 2, Q, rng)
    b = random_invariant(3, 2, Q, rng)
    c = Q.from_int(5)
    assert iv.restrict(a.add(b.scale(c))) == iv.restrict(a).add(iv.restrict(b).scale(c))


def test_blocks_are_gds_with_sum_b():
    rng = random.Random(12)
    for n, r in [(3, 2), (4, 2)]:
        a = random_invariant(n, r, Q, rng)
        lower = iv.restrict(a)
        for p in ix.all_indices(n, r - 1):
            for q in ix.all_indices(n, r - 1):
                minor = [
                    [a.get(p + (i,), q + (j,)) for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
                assert iv.is_gds(Q, minor) == lower.get(p, q)


def test_duplicate_tail_entries_equal_b():
    rng = random.Random(13)
    n, r = 3, 2
    a = random_invariant(n, r, Q, rng)
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
    c = random_invariant(2, 2, Q, rng)
    a = iv.theta(c, 3, 2)
    assert iv.zero_rowcol_implies_special(a, 3, 2)
    ident = tn.phi(ix.perm_identity(3), 3, 2, Q)
    assert not iv.zero_rowcol_implies_special(ident, 1, 2)
    z = tn.TensorMatrix.zeros(3, 2, Q)
    for i in range(1, 4):
        for j in range(1, 4):
            assert iv.zero_rowcol_implies_special(z, i, j)


def test_special_diagonal_closed_under_product():
    rng = random.Random(21)
    n, r = 3, 2
    specials = []
    for _ in range(4):
        c = random_invariant(n - 1, r, Q, rng)
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
    c = random_invariant(n - 1, r, Q, rng)
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
            pbar = ix.collapse_avoiding(p, i0)
            qbar = ix.collapse_avoiding(q, j0)
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
            c = random_invariant(n - 1, r, Q, rng)
            for (p, q) in [(n, n), (1, 2), (2, 1), (n, 1)]:
                a = iv.theta(c, p, q)
                assert iv.eta(a, p, q) == c
                assert iv.is_special(a, p, q)
                assert iv.is_invariant(a)
    # the excision cells of decompose at (4,3), (5,2) and (5,3), every tag
    # (n, j): theta is special and invariant, and restricts to its one block
    for n, r in [(4, 3), (5, 2), (5, 3)]:
        for ring in (Q, Z6, Z):
            c = random_invariant(n - 1, r, ring, rng)
            for j in range(1, n + 1):
                a = iv.theta(c, n, j)
                assert iv.is_invariant(a)
                assert iv.is_special(a, n, j)
                assert iv.eta(a, n, j) == c
                assert iv._restrict(a) == iv.block(a, n, j)


def test_theta_eta_identity_on_specials():
    rng = random.Random(14)
    n, r = 3, 2
    c = random_invariant(n - 1, r, Q, rng)
    a = iv.theta(c, 3, 1)
    assert iv.theta(iv.eta(a, 3, 1), 3, 1) == a


def test_theta_rho_commute():
    rng = random.Random(9)
    for ring in (Q, Z6):
        for n, r in [(3, 1), (3, 2), (4, 2)]:
            c = random_invariant(n - 1, r, ring, rng)
            for (p, q) in [(n, n), (1, 1), (2, n)]:
                assert iv.theta_rho_commute_check(c, p, q)
            z = tn.TensorMatrix.zeros(n - 1, r, ring)
            assert iv.theta_rho_commute_check(z, n, n)


# -- half algebra --------------------------------------------------------------


def half_matrices(n, r, ring):
    return [
        tn.psi_on_fixed_last(d, n, ring)
        for d in dg.enumerate_diagrams(r + 1)
        if dg.is_half_algebra_member(d)
    ]


def test_half_iso_on_permutation_powers():
    for n, r in [(3, 1), (3, 2)]:
        half = half_matrices(n, r, Q)
        for w in ix.all_permutations(n):
            a = tn.phi(w, n, r, Q)
            comm, special = iv.half_algebra_invariants_iso(a, half)
            assert comm == special == (w[n - 1] == n)
        ident = tn.TensorMatrix.identity(n, r, Q)
        assert iv.half_algebra_invariants_iso(ident, half) == (True, True)


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
        comm, special = iv.half_algebra_invariants_iso(m, half)
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
        and ix.places_of(i, 4) == ix.places_of(j, 4)
    }
    assert starred == load_shape("shape_e42_special_44.txt")


def test_excising_special_shape_gives_lower_shape():
    special = load_shape("shape_e42_special_44.txt")
    excised = {
        (i, j) for (i, j) in special if 4 not in i and 4 not in j
    }
    assert excised == load_shape("shape_e32.txt")
