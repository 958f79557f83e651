import itertools
import random

import pytest

from oracle import matrix_entries_from_solution, solve_extension

from swdual import extension as ex
from swdual import indices as ix
from swdual import invariants as iv
from swdual import patterns as pt
from swdual import tensor as tn
from swdual.rings import Ring

Q = Ring.rationals()
Z = Ring.integers()
Z4 = Ring.modular(4)
Z6 = Ring.modular(6)
F2 = Ring.modular(2)

RINGS = [Q, Z, Z4, Z6]


def random_invariant(n, r, ring, rng, bound=3):
    m = tn.TensorMatrix.zeros(n, r, ring)
    for w in ix.all_permutations(n):
        c = rng.randrange(-bound, bound + 1)
        if c:
            m = m.add(tn.phi(w, n, r, ring).scale(ring.from_int(c)))
    return m


def random_assignment(pattern, ring, rng, bound=4):
    return {key: ring.from_int(rng.randrange(-bound, bound + 1)) for key in pattern.entries}


# -- initialise -----------------------------------------------------------------


def test_initialise_agrees_with_phi_everywhere_defined():
    n, r = 3, 2
    w = (2, 3, 1)
    b = tn.phi(w, n, r - 1, Q)
    target = tn.phi(w, n, r, Q)
    data = ex.initialise(b)
    size = n**r
    undetermined = 0
    for ri, i in enumerate(ix.all_indices(n, r)):
        for rj, j in enumerate(ix.all_indices(n, r)):
            v = data[ri * size + rj]
            if v is None:
                undetermined += 1
                assert ix.sharp(i) == r and ix.sharp(j) == r
            else:
                assert v == target.get(i, j)
    assert undetermined == len(ix.injective_indices(n, r)) ** 2


def test_initialise_of_zero_is_zero():
    b = tn.TensorMatrix.zeros(3, 1, Z6)
    data = ex.initialise(b)
    assert all(v == Z6.zero for v in data if v is not None)


def test_initialise_rejects_non_invariants():
    bad = tn.TensorMatrix(2, 2, Q, [Q.from_int(k) for k in range(16)])
    with pytest.raises(iv.NotInvariantError):
        ex.initialise(bad)


def test_non_invariant_input_is_refused_before_construction():
    # diag(1,0,0) breaks G; building from it used to end in a
    # ConstructionFailure
    witness = '{"alpha": 1, "kind": "G", "p": "", "q": ""}'
    for ring in (Z6, Z, Q):
        diag = tn.TensorMatrix(3, 1, ring, [ring.one] + [ring.zero] * 8)
        calls = [
            lambda: ex.initialise(diag),
            lambda: ex.extend(diag),
            lambda: ex.decompose(diag),
            lambda: ex.decompose(diag, basis="col:1"),
            lambda: ex.extend_with_prescription(diag, {}),
        ]
        for call in calls:
            with pytest.raises(iv.NotInvariantError) as err:
                call()
            assert str(err.value) == "input is not an invariant; first violation: " + witness
        # its coefficients, read off or from the operator, cannot rebuild it
        with pytest.raises(ex.NotInSpanError):
            ex.express_in_permutation_span(diag)
    # moving the entry at (12, 21) breaks S at the other pair of its orbit
    bad = tn.phi((2, 3, 1), 3, 2, Z6)
    bad.data[1 * 9 + 3] = Z6.add(bad.data[1 * 9 + 3], Z6.one)
    with pytest.raises(iv.NotInvariantError) as err:
        ex.decompose(bad)
    assert str(err.value).endswith('{"col": "12", "kind": "S", "row": "21"}')
    with pytest.raises(ex.NotInSpanError):
        ex.express_in_permutation_span(bad)
    # one entry at a value-type mismatch breaks H; an extension of such a
    # matrix would not restrict to it
    for n, r in [(4, 2), (5, 2)]:
        off = tn.phi((2, 1) + tuple(range(3, n + 1)), n, r, Z6)
        off.data[1] = Z6.one  # (11, 12): the values 1, 1 against 1, 2
        for call in (ex.extend, ex.decompose):
            with pytest.raises(iv.NotInvariantError, match='"kind": "H"'):
                call(off)
        with pytest.raises(ex.NotInSpanError):
            ex.express_in_permutation_span(off)


def test_initialise_from_degree_zero():
    b = tn.TensorMatrix.scalar(3, Q, Q.from_int(2))
    data = ex.initialise(b)
    # every off-diagonal pair of singletons is undetermined, nothing else
    assert data[0] is None and all(
        v is None or v == Q.zero or v == Q.from_int(2) for v in data
    )


# -- extend ----------------------------------------------------------------------


def test_extend_reproduces_phi_from_pattern_values():
    for n, r in [(3, 2), (4, 2), (4, 3)]:
        pattern = pt.build_f(n, r)
        for w in [ix.w0(n), tuple(range(2, n + 1)) + (1,)]:
            target = tn.phi(w, n, r, Q)
            f = {key: target.get(*key) for key in pattern.entries}
            assert ex.extend(tn.phi(w, n, r - 1, Q), f) == target


def test_extension_unique_when_n_at_most_r():
    rng = random.Random(5)
    for n, r in [(2, 2), (2, 3), (3, 3)]:
        b = random_invariant(n, r - 1, Q, rng)
        a1 = ex.extend(b)
        a2 = ex.extend(b, {})
        assert a1 == a2
        assert iv.restrict(a1) == b


@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
def test_unique_extension_agrees_with_field_oracle(n, r):
    rng = random.Random(n * 10 + r)
    b = random_invariant(n, r - 1, Q, rng)
    particular, basis, var_of = solve_extension(b)
    assert basis == []
    assert ex.extend(b).data == matrix_entries_from_solution(b, particular, var_of)


def test_extend_identity_of_e31_with_zero_free_value():
    b = tn.TensorMatrix.identity(3, 1, Q)
    a = ex.extend(b, {((3, 2), (3, 2)): Q.zero})
    assert iv.restrict(a) == b
    assert a.get((3, 2), (3, 2)) == Q.zero
    # cross-check against the independent field linear system
    solved = solve_extension(b, {((3, 2), (3, 2)): Q.zero})
    assert solved is not None
    particular, basis, var_of = solved
    assert basis == []
    data = matrix_entries_from_solution(b, particular, var_of)
    assert data == a.data


def test_extend_agrees_with_field_oracle_on_random_inputs():
    rng = random.Random(19)
    for n, r in [(3, 2), (4, 2)]:
        pattern = pt.build_f(n, r)
        for _ in range(3):
            b = random_invariant(n, r - 1, Q, rng)
            f = random_assignment(pattern, Q, rng)
            a = ex.extend(b, f)
            particular, basis, var_of = solve_extension(b, f)
            assert basis == []
            assert matrix_entries_from_solution(b, particular, var_of) == a.data


def test_extend_round_trip_and_verbatim_read_back():
    rng = random.Random(23)
    for n, r in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        pattern = pt.build_f(n, r)
        for ring in RINGS:
            b = random_invariant(n, r - 1, ring, rng)
            f = random_assignment(pattern, ring, rng)
            a = ex.extend(b, f)
            assert iv.restrict(a) == b
            for key, value in f.items():
                assert a.get(*key) == value


def test_extend_injective_in_assignment():
    rng = random.Random(3)
    n, r = 4, 2
    pattern = pt.build_f(n, r)
    b = random_invariant(n, r - 1, Z6, rng)
    f1 = random_assignment(pattern, Z6, rng)
    f2 = dict(f1)
    key = pattern.entries[0]
    f2[key] = Z6.add(f2[key], Z6.one)
    assert ex.extend(b, f1) != ex.extend(b, f2)


def test_extend_rejects_foreign_keys():
    b = tn.TensorMatrix.identity(3, 1, Q)
    with pytest.raises(ValueError, match="not a free-pattern entry"):
        ex.extend(b, {((1, 2), (1, 2)): Q.one})


# -- prescriptions -----------------------------------------------------------------


def test_prescribed_row_from_colouring_driven_assignment():
    """A full last-lex row produced by assigning its free entries and
    cascading the slice forcings is a row of some extension."""
    rng = random.Random(8)
    for n, r in [(3, 2), (4, 2)]:
        b = random_invariant(n, r - 1, Q, rng)
        pattern = pt.build_f(n, r)
        u = max(row for (row, _) in pattern.entries)
        f = {
            (row, col): Q.from_int(rng.randrange(-3, 4))
            for (row, col) in pattern.entries
            if row == u
        }
        reference = ex.extend(b, f)
        a = ex.extend_with_prescription(b, {u: reference.row(u)})
        assert a.row(u) == reference.row(u)
        assert iv.restrict(a) == b


def test_prescribed_row_of_phi_power():
    n, r = 4, 2
    w = (2, 3, 4, 1)
    b = tn.phi(w, n, r - 1, Q)
    target = tn.phi(w, n, r, Q)
    u = (4, 3)  # the last-lex injective row of the basis block row
    a = ex.extend_with_prescription(b, {u: target.row(u)})
    assert a.row(u) == target.row(u)
    assert iv.restrict(a) == b


def test_prescribed_column_variant():
    n, r = 3, 2
    w = (3, 1, 2)
    b = tn.phi(w, n, r - 1, Q)
    target = tn.phi(w, n, r, Q)
    v = (3, 2)
    a = ex.extend_with_prescription(b, {v: target.column(v)}, basis="col:3")
    assert a.column(v) == target.column(v)
    assert iv.restrict(a) == b


def test_prescription_violating_slice_sums_is_rejected():
    n, r = 3, 2
    b = tn.TensorMatrix.identity(n, r - 1, Q)
    bad_row = [Q.from_int(9)] * (n**r)
    with pytest.raises(ex.IncompatiblePrescription):
        ex.extend_with_prescription(b, {(3, 2): bad_row})


@pytest.mark.xfail(
    strict=True,
    raises=ex.IncompatiblePrescription,
    reason="free entries outside the prescribed lines default to zero instead of being solved for",
)
def test_prescription_read_off_an_extension_is_compatible():
    # the row (3, 1) of an extension, prescribed alone, fails at column 12
    b = tn.TensorMatrix.identity(3, 1, Q)
    t = ex.extend(b, {((3, 2), (3, 2)): Q.one})
    a = ex.extend_with_prescription(b, {(3, 1): t.row((3, 1))})
    assert a.row((3, 1)) == t.row((3, 1))
    assert iv.restrict(a) == b


def test_prescription_requires_basis_block_row():
    b = tn.TensorMatrix.identity(3, 1, Q)
    with pytest.raises(ValueError, match="basis block row"):
        ex.extend_with_prescription(b, {(1, 2): [Q.zero] * 9})


# -- decompose ----------------------------------------------------------------------


def test_decompose_of_phi_concentrates_in_one_block():
    for n, r in [(3, 2), (4, 2)]:
        for w in ix.all_permutations(n):
            m = tn.phi(w, n, r, Q)
            f = {
                key: m.get(key[1], key[2]) if w[key[0] - 1] == n else Q.zero
                for key in pt.build_d(n, r).entries
            }
            parts = ex.decompose(m, f)
            j0 = ix.perm_inverse(w)[n - 1]
            for j, part in enumerate(parts, start=1):
                if j == j0:
                    assert part == m
                else:
                    assert part.is_zero()


def test_decompose_unique_case_needs_no_assignment():
    rng = random.Random(31)
    for n, r in [(3, 2), (4, 3), (2, 2)]:  # n <= r + 1
        assert len(pt.build_d(n, r)) == 0
        for ring in (Q, Z6):
            a = random_invariant(n, r, ring, rng)
            parts = ex.decompose(a)
            total = parts[0]
            for s in parts[1:]:
                total = total.add(s)
            assert total == a
            for j, s in enumerate(parts, start=1):
                assert iv.is_special(s, n, j)


def test_decompose_at_n_one_is_the_single_special_summand():
    rng = random.Random(41)
    for ring in (Z6, Q, Ring.integers()):
        for r in (1, 2, 3):
            a = tn.TensorMatrix.identity(1, r, ring).scale(ring.from_int(rng.randrange(1, 9)))
            for basis in ("last-row", "row:1", "col:1"):
                parts = ex.decompose(a, basis=basis)
                assert parts == [a]
                assert iv.is_special(parts[0], 1, 1)
                assert iv.restrict(parts[0]) == iv.block(a, 1, 1)


def test_decompose_zero_matrix():
    parts = ex.decompose(tn.TensorMatrix.zeros(4, 2, Q))
    assert all(p.is_zero() for p in parts)


def test_decompose_round_trip_with_assignments():
    rng = random.Random(37)
    for n, r in [(4, 2), (5, 2)]:
        dpat = pt.build_d(n, r)
        for ring in RINGS:
            a = random_invariant(n, r, ring, rng)
            f = random_assignment(dpat, ring, rng)
            parts = ex.decompose(a, f)
            total = parts[0]
            for s in parts[1:]:
                total = total.add(s)
            assert total == a
            for j, s in enumerate(parts, start=1):
                assert iv.is_special(s, n, j)
                assert iv.restrict(s) == iv.block(a, n, j)
            for (j, p, q), value in f.items():
                assert parts[j - 1].get(p, q) == value


def test_a_non_invariant_excision_fails_verification(monkeypatch):
    # d restricts to zero and theta(d, 4, 1) == theta(d, 4, 2), so moving d
    # from the second excision to the first keeps the summands' sum and every
    # restriction: only the excisions' membership check can see it
    n, r = 4, 2
    size = (n - 1) ** r
    data = [Z6.zero] * (size * size)
    data[ix.index_rank(n - 1, (1, 1)) * size + ix.index_rank(n - 1, (2, 2))] = Z6.one
    data[ix.index_rank(n - 1, (1, 1)) * size + ix.index_rank(n - 1, (3, 2))] = Z6.neg(Z6.one)
    d = tn.TensorMatrix(n - 1, r, Z6, data)
    assert not iv.is_invariant(d)
    assert iv._restrict(d).is_zero()
    assert iv.theta(d, n, 1) == iv.theta(d, n, 2)

    parts = ex._parts

    def shifted(a, f):
        c = parts(a, f)
        return [c[0].add(d), c[1].sub(d)] + c[2:]

    a = random_invariant(n, r, Z6, random.Random(59))
    ex.decompose(a)  # verifies, and builds every operator before the patch
    monkeypatch.setattr(ex, "_parts", shifted)
    with pytest.raises(ex.ConstructionFailure, match="excision 1 fails membership"):
        ex.decompose(a)


def test_decompose_along_other_block_rows_and_columns():
    rng = random.Random(47)
    n, r = 4, 2
    a = random_invariant(n, r, Q, rng)
    for basis_row in (1, 2, 3):
        parts = ex.decompose(a, basis="row:%d" % basis_row)
        total = parts[0]
        for s in parts[1:]:
            total = total.add(s)
        assert total == a
        for j, s in enumerate(parts, start=1):
            assert iv.is_special(s, basis_row, j)
    for basis_col in (1, 4):
        parts = ex.decompose(a, basis="col:%d" % basis_col)
        total = parts[0]
        for s in parts[1:]:
            total = total.add(s)
        assert total == a
        for i, s in enumerate(parts, start=1):
            assert iv.is_special(s, i, basis_col)
    with pytest.raises(ValueError, match="unknown basis"):
        ex.decompose(a, basis="diagonal")


def test_decompose_row_basis_assignment_read_back():
    rng = random.Random(53)
    n, r = 4, 2
    a = random_invariant(n, r, Q, rng)
    tau = (1, 4, 3, 2)  # swaps 2 and 4
    f = {}
    for (j, p, q) in pt.build_d(n, r).entries:
        key = (tau[j - 1], ix.act_left(tau, p), ix.act_left(tau, q))
        f[key] = Q.from_int(rng.randrange(-3, 4))
    parts = ex.decompose(a, f, basis="row:2")
    for (k, p, q), value in f.items():
        assert parts[k - 1].get(p, q) == value


def test_prescription_in_another_block_row():
    n, r = 4, 2
    w = (4, 3, 1, 2)  # w(1) = 4, so phi(w) has support in block row 4 -> use basis 2
    b = tn.phi(w, n, r - 1, Q)
    target = tn.phi(w, n, r, Q)
    u = (2, 4)
    a = ex.extend_with_prescription(b, {u: target.row(u)}, basis="row:2")
    assert a.row(u) == target.row(u)
    assert iv.restrict(a) == b


def test_decompose_rejects_degree_zero_and_foreign_keys():
    with pytest.raises(ValueError):
        ex.decompose(tn.TensorMatrix.scalar(3, Q, Q.one))
    a = tn.TensorMatrix.identity(4, 2, Q)
    with pytest.raises(ValueError, match="not a decomposition-pattern entry"):
        ex.decompose(a, {(1, (3, 2), (3, 2)): Q.one})


# -- fiber count over F2 ---------------------------------------------------------------


def test_extension_fiber_over_f2_at_3_2():
    """Every invariant one degree down has exactly 2^{|F(3,2)|} = 2
    extensions over F2, swept bijectively by the assignments."""
    pattern = pt.build_f(3, 2)
    assert len(pattern) == 1
    key = pattern.entries[0]
    rng = random.Random(41)
    bs = []
    while len(bs) < 5:
        b = random_invariant(3, 1, F2, rng, bound=1)
        if all(b != other for other in bs):
            bs.append(b)
    for b in bs:
        extensions = [ex.extend(b, {key: F2.from_int(v)}) for v in (0, 1)]
        ext_data = {tuple(a.data) for a in extensions}
        assert len(ext_data) == 2
        # independent enumeration through the field linear system
        particular, basis, var_of = solve_extension(b)
        assert len(basis) == 1
        solutions = set()
        for t in (0, 1):
            vec = [
                F2.add(p, F2.mul(F2.from_int(t), h))
                for p, h in zip(particular, basis[0])
            ]
            solutions.add(tuple(matrix_entries_from_solution(b, vec, var_of)))
        assert solutions == ext_data


# -- permutation-span expression ---------------------------------------------------------


def test_read_off_examples():
    # from degree n - 1 on the coefficients are read off one column
    for n, r in [(3, 2), (3, 3)]:
        a = tn.phi(ix.w0(n), n, r, Q)
        assert ex.express_in_permutation_span(a) == {ix.w0(n): Q.one}
        u, v = (2, 1, 3), (1, 3, 2)
        two = tn.phi(u, n, r, Q).add(tn.phi(v, n, r, Q))
        assert ex.express_in_permutation_span(two) == {u: Q.one, v: Q.one}
        scaled = tn.phi(u, n, r, Z6).scale(Z6.from_int(3))
        assert ex.express_in_permutation_span(scaled) == {u: Z6.from_int(3)}


def test_read_off_rejects_non_span_matrices():
    bad = tn.TensorMatrix.zeros(2, 2, Q)
    bad.data[1] = Q.one  # not place-permutation invariant
    with pytest.raises(ex.NotInSpanError):
        ex.express_in_permutation_span(bad)


def test_lift_permutation_matches_inflation():
    for n, r in [(3, 1), (3, 2), (4, 2)]:
        for j in range(1, n + 1):
            for wbar in ix.all_permutations(n - 1):
                w = ex.lift_permutation(wbar, j)
                assert w[j - 1] == n
                assert iv.theta(tn.phi(wbar, n - 1, r, Q), n, j) == tn.phi(w, n, r, Q)


def test_express_identity_and_j_matrix():
    for n, r in [(3, 2), (4, 2)]:
        ident = tn.TensorMatrix.identity(n, r, Q)
        coeffs = ex.express_in_permutation_span(ident)
        total = tn.TensorMatrix.zeros(n, r, Q)
        for w, x in coeffs.items():
            total = total.add(tn.phi(w, n, r, Q).scale(x))
        assert total == ident
    # J_n at degree one
    n = 3
    j = tn.TensorMatrix(n, 1, Q, [Q.one] * (n * n))
    coeffs = ex.express_in_permutation_span(j)
    total = tn.TensorMatrix.zeros(n, 1, Q)
    for w, x in coeffs.items():
        total = total.add(tn.phi(w, n, 1, Q).scale(x))
    assert total == j


def test_express_round_trips_over_all_rings():
    rng = random.Random(53)
    for n, r in [(3, 2), (4, 3), (5, 2)]:
        for ring in RINGS:
            a = random_invariant(n, r, ring, rng)
            coeffs = ex.express_in_permutation_span(a)
            total = tn.TensorMatrix.zeros(n, r, ring)
            for w, x in coeffs.items():
                total = total.add(tn.phi(w, n, r, ring).scale(x))
            assert total == a


def test_express_degree_above_rank_reads_directly():
    a = tn.phi((2, 1), 2, 3, Z4).scale(Z4.from_int(3))
    coeffs = ex.express_in_permutation_span(a)
    assert coeffs == {(2, 1): Z4.from_int(3)}


def test_express_degree_zero():
    a = tn.TensorMatrix.scalar(3, Q, Q.from_int(7))
    assert ex.express_in_permutation_span(a) == {ix.perm_identity(3): Q.from_int(7)}


# -- kernel dimensions ----------------------------------------------------------------


def test_kernel_of_rho_dimensions():
    assert ex.kernel_of_rho_dimension(3, 2, Q) == 1
    assert ex.kernel_of_rho_dimension(4, 2, Q) == 13
    assert ex.kernel_of_rho_dimension(4, 4, Q) == 0
    with pytest.raises(ValueError):
        ex.kernel_of_rho_dimension(3, 2, Z6)
