import itertools
import random

import pytest

import reference as ref

from swdual import gibson as gb
from swdual import indices as ix
from swdual.extension import ConstructionFailure
from swdual.invariants import is_invariant, restrict
from swdual.rings import Ring
from swdual.tensor import TensorMatrix, phi, phi_sum

Q = Ring.rationals()
Z = Ring.integers()
F2 = Ring.modular(2)


def matrix_of(ring, w):
    """Dense rows of the permutation matrix of w."""
    n = len(w)
    data = phi(w, n, 1, ring).data
    return [data[k : k + n] for k in range(0, n * n, n)]


def random_gds(ring, n, rng, terms=8, bound=5):
    coeffs = {}
    perms = ix.all_permutations(n)
    for _ in range(terms):
        w = rng.choice(perms)
        c = ring.from_int(rng.randrange(-bound, bound + 1))
        coeffs[w] = ring.add(coeffs.get(w, ring.zero), c)
    return phi_sum(coeffs, n, 1, ring)


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
    for n in (2, 3, 4):
        for _, w in gb.gibson_basis(n):
            p = phi(w, n, 1, Z)
            assert is_invariant(p) and restrict(p).data == [Z.one]


def test_linear_independence():
    assert ref.linear_independence_check(4, Q)
    assert ref.linear_independence_check(3, F2)
    assert ref.linear_independence_check(2, Q)
    with pytest.raises(ValueError, match="requires a field"):
        ref.linear_independence_check(3, Z)
    for n in (5, 6):
        assert ref.linear_independence_check(n, Q)


def test_decompose_identity():
    coeffs = gb.gibson_decompose(phi(ix.perm_identity(4), 4, 1, Z))
    assert coeffs["I"] == Z.one
    assert all(v == Z.zero for k, v in coeffs.items() if k != "I")


def test_decompose_all_ones():
    n = 4
    ones = TensorMatrix(n, 1, Q, [Q.one] * (n * n))
    coeffs = gb.gibson_decompose(ones)
    assert gb.reconstruct(Q, n, coeffs) == ones


def test_decompose_reads_back_free_coefficients():
    n = 4
    a = phi_sum({gb.circulant_q(n): 2, gb.gibson_g(n, 1, 3): 3}, n, 1, Z)
    coeffs = gb.gibson_decompose(a)
    assert coeffs["Q"] == 2 and coeffs["G(1,3)"] == 3
    assert all(v == 0 for k, v in coeffs.items() if k not in ("Q", "G(1,3)"))


def test_decompose_random_gds_over_four_rings():
    # 100 matrices per ring, twenty per size
    rng = random.Random(71)
    for ring in (Z, Q, Ring.modular(4), Ring.modular(6)):
        for n in range(2, 7):
            for _ in range(20):
                a = random_gds(ring, n, rng)
                coeffs = gb.gibson_decompose(a)
                assert gb.reconstruct(ring, n, coeffs) == a


def test_decompose_rejects_non_gds():
    with pytest.raises(ValueError, match="doubly-stochastic"):
        gb.gibson_decompose(TensorMatrix(2, 1, Z, [1, 0, 0, 2]))


def test_a_wrong_closed_form_fails_the_minor_rule(monkeypatch, capsys):
    from swdual import cli

    check = gb._check_minor_rule
    # the rule reads G(r,c) with the images of columns 1 and 2 swapped
    monkeypatch.setattr(gb, "_check_minor_rule",
                        lambda n, r, c, w: check(n, r, c, (w[1], w[0]) + w[2:]))
    with pytest.raises(ConstructionFailure, match=r"minor rule fails for G\(1,3\)"):
        gb.gibson_g(4, 1, 3)
    assert cli.main(["gibson", "--n", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal failure: minor rule fails for G(1,3)")


def test_a_non_gds_input_past_the_gate_fails_the_residual_check(monkeypatch):
    monkeypatch.setattr(gb, "is_invariant", lambda a: True)
    with pytest.raises(ConstructionFailure, match="Gibson residual is nonzero"):
        gb.gibson_decompose(TensorMatrix(2, 1, Z, [1, 0, 0, 2]))
