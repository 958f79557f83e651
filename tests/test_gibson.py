import itertools
import random

import pytest

import reference as ref

from swdual import gibson as gb
from swdual import indices as ix
from swdual.rings import Ring

Q = Ring.rationals()
Z = Ring.integers()
F2 = Ring.modular(2)


def matrix_of(ring, w):
    return gb.perm_rows(ring, w)


def random_gds(ring, n, rng, terms=8, bound=5):
    rows = [[ring.zero] * n for _ in range(n)]
    perms = ix.all_permutations(n)
    for _ in range(terms):
        w = rng.choice(perms)
        c = ring.from_int(rng.randrange(-bound, bound + 1))
        for j in range(1, n + 1):
            rows[w[j - 1] - 1][j - 1] = ring.add(rows[w[j - 1] - 1][j - 1], c)
    return rows


def test_circulant_display_and_order():
    assert matrix_of(Z, gb.circulant_q(4)) == [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ]
    assert gb.circulant_q(2) == (2, 1)
    for n in (2, 3, 5):
        acc = ix.perm_identity(n)
        for _ in range(n):
            acc = ref.perm_compose(gb.circulant_q(n), acc)
        assert acc == ix.perm_identity(n)
    with pytest.raises(ValueError):
        gb.circulant_q(1)


def test_gamma_sets():
    assert gb.gamma_set(3) == [(1, 3), (2, 1), (3, 2)]
    assert len(gb.gamma_set(4)) == 8
    assert gb.gamma_set(2) == []
    # gamma is exactly the zero set of circulant + identity
    for n in (3, 4, 5):
        q = matrix_of(Z, gb.circulant_q(n))
        zeros = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if q[i - 1][j - 1] == 0 and i != j
        }
        assert set(gb.gamma_set(n)) == zeros


def test_g_elements_support_uniqueness_and_minor_rule():
    # the minor rule is asserted inside gibson_g; also verify the support
    for n in (3, 4, 5, 6):
        support = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                   if i == j or (i % n) + 1 == j}
        for (r, c) in gb.gamma_set(n):
            w = gb.gibson_g(n, r, c)
            positions = {(w[j - 1], j) for j in range(1, n + 1)}
            assert (r, c) in positions
            assert positions - {(r, c)} <= support
    with pytest.raises(ValueError):
        gb.gibson_g(4, 1, 2)  # (1,2) is in the support, not a zero


def test_closed_form_is_the_unique_support_search_solution():
    positions = [(n, r, c) for n in range(3, 11) for (r, c) in gb.gamma_set(n)]
    assert len(positions) == 276
    for n, r, c in positions:
        assert ref.gibson_g_by_search(n, r, c) == [gb.gibson_g(n, r, c)]


def test_basis_size_and_distinctness():
    for n in range(2, 7):
        basis = gb.gibson_basis(n)
        assert len(basis) == (n - 1) ** 2 + 1
        assert len({w for _, w in basis}) == len(basis)
        labels = [label for label, _ in basis]
        assert labels[-2:] == ["Q", "I"]


def test_every_basis_element_is_gds_with_sum_one():
    from swdual.invariants import is_gds

    for n in (2, 3, 4):
        for _, w in gb.gibson_basis(n):
            assert is_gds(Z, matrix_of(Z, w)) == Z.one


def test_linear_independence():
    assert gb.linear_independence_check(4, Q)
    assert gb.linear_independence_check(3, F2)
    assert gb.linear_independence_check(2, Q)
    with pytest.raises(ValueError, match="requires a field"):
        gb.linear_independence_check(3, Z)
    for n in (5, 6):
        assert gb.linear_independence_check(n, Q)


def test_decompose_identity():
    coeffs = gb.gibson_decompose(Z, matrix_of(Z, ix.perm_identity(4)))
    assert coeffs["I"] == Z.one
    assert all(v == Z.zero for k, v in coeffs.items() if k != "I")


def test_decompose_all_ones():
    n = 4
    rows = [[Q.one] * n for _ in range(n)]
    coeffs = gb.gibson_decompose(Q, rows)
    assert gb.reconstruct(Q, n, coeffs) == rows


def test_decompose_reads_back_free_coefficients():
    n = 4
    rows = [[Z.zero] * n for _ in range(n)]
    for coeff, w in ((2, gb.circulant_q(n)), (3, gb.gibson_g(n, 1, 3))):
        for j in range(1, n + 1):
            rows[w[j - 1] - 1][j - 1] = Z.add(rows[w[j - 1] - 1][j - 1], coeff)
    coeffs = gb.gibson_decompose(Z, rows)
    assert coeffs["Q"] == 2 and coeffs["G(1,3)"] == 3
    assert all(v == 0 for k, v in coeffs.items() if k not in ("Q", "G(1,3)"))


def test_decompose_random_gds_over_four_rings():
    # 100 matrices per ring, twenty per size
    rng = random.Random(71)
    for ring in (Z, Q, Ring.modular(4), Ring.modular(6)):
        for n in range(2, 7):
            for _ in range(20):
                rows = random_gds(ring, n, rng)
                coeffs = gb.gibson_decompose(ring, rows)
                assert gb.reconstruct(ring, n, coeffs) == rows


def test_decompose_rejects_non_gds():
    with pytest.raises(ValueError, match="doubly-stochastic"):
        gb.gibson_decompose(Z, [[Z.one, Z.zero], [Z.zero, Z.from_int(2)]])
