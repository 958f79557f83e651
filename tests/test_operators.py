"""extend, decompose and express as cached per-(n, r) integer operators.

The extension and decomposition operators are built by the block
recursion, whose inner calls apply the operators one rank or one degree
down; the express operator is their product.  The properties here check,
on random invariants over Z/4, Z/6, Z and Q, that a public call equals the
recursion on the same input by ``repr`` (which pins the raw value type
and the order of the express coefficients), that the round-trip laws
hold over random moduli, that every operator is built once per (n, r),
and that self-verification still catches a corrupted coefficient.
``construction_golden`` pins the outputs of the whole recursion.
"""

from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import construction_golden

from swdual import extension as ex
from swdual import indices as ix
from swdual import invariants as iv
from swdual import patterns as pt
from swdual import tensor as tn
from swdual.rings import Ring

RINGS = [Ring.parse(name) for name in ("z/4", "z/6", "z", "q")]
Z = Ring.integers()
Z6 = Ring.modular(6)

# (n, r) of the matrix each operation returns or reads
EXTEND_CELLS = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]
DECOMPOSE_CELLS = [(2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)]
EXPRESS_CELLS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)]
# every cell from (1, 2) to (5, 3), for the laws
LAW_CELLS = [(1, 2)] + DECOMPOSE_CELLS

PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def value(draw, ring, bound):
    x = draw(st.integers(-bound, bound))
    if ring.kind == "q":
        return Fraction(x, draw(st.integers(1, 6)))
    return ring.from_int(x)


def invariant(draw, n, r, ring):
    """A combination of up to four permutation powers."""
    a = tn.TensorMatrix.zeros(n, r, ring)
    for w in draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4)):
        a = a.add(tn.phi(tuple(w), n, r, ring).scale(value(draw, ring, 3)))
    return a


def values(draw, ring, keys):
    return {key: value(draw, ring, 5) for key in keys}


@PROPERTY
@given(st.data())
def test_extend_equals_the_recursion(data):
    n, r = data.draw(st.sampled_from(EXTEND_CELLS))
    ring = data.draw(st.sampled_from(RINGS))
    b = invariant(data.draw, n, r - 1, ring)
    f = values(data.draw, ring, pt.build_f(n, r).entries)
    assert repr(ex.extend(b, f).data) == repr(ex._extend_recursive(b, f).data)


@PROPERTY
@given(st.data())
def test_decompose_equals_the_recursion(data):
    n, r = data.draw(st.sampled_from(DECOMPOSE_CELLS))
    ring = data.draw(st.sampled_from(RINGS))
    a = invariant(data.draw, n, r, ring)
    f = values(data.draw, ring, pt.build_d(n, r).entries)
    got = ex.decompose(a, f)
    want = [iv.theta(c, n, j) for j, c in enumerate(ex._decompose_step(a, f), start=1)]
    assert repr([s.data for s in got]) == repr([s.data for s in want])


def express_by_recursion(a):
    """The coefficients by the block recursion, zeros included: read off
    at r >= n, else express the excision of each summand a rank down and
    lift it."""
    n, r = a.n, a.r
    if n == 1 or r == 0:
        return {ix.perm_identity(n): a.data[0]}
    if r >= n:
        col = tuple(range(1, n + 1)) + (1,) * (r - n)
        return {w: a.get(ix.act_left(w, col), col) for w in ix.all_permutations(n)}
    coeffs = {}
    for j, s in enumerate(ex.decompose(a), start=1):
        for wbar, x in express_by_recursion(iv.eta(s, n, j)).items():
            coeffs[ex.lift_permutation(wbar, j)] = x
    return coeffs


@PROPERTY
@given(st.data())
def test_express_equals_the_recursion_in_its_order(data):
    n, r = data.draw(st.sampled_from(EXPRESS_CELLS))
    ring = data.draw(st.sampled_from(RINGS))
    a = invariant(data.draw, n, r, ring)
    want = {w: x for w, x in express_by_recursion(a).items() if x != ring.zero}
    assert repr(ex.express_in_permutation_span(a)) == repr(want)


def random_ring(draw):
    return draw(st.sampled_from([Ring.integers(), Ring.modular(draw(st.integers(2, 36)))]))


@PROPERTY
@given(st.data())
def test_extension_restricts_back_over_random_moduli(data):
    n, r = data.draw(st.sampled_from(LAW_CELLS))
    ring = random_ring(data.draw)
    b = invariant(data.draw, n, r - 1, ring)
    f = values(data.draw, ring, pt.build_f(n, r).entries)
    a = ex.extend(b, f)
    assert iv.restrict(a) == b
    assert all(a.get(*key) == x for key, x in f.items())


@PROPERTY
@given(st.data())
def test_summands_add_back_over_random_moduli(data):
    n, r = data.draw(st.sampled_from(LAW_CELLS))
    ring = random_ring(data.draw)
    a = invariant(data.draw, n, r, ring)
    basis = data.draw(st.sampled_from(["last-row", "col:1", "row:%d" % n]))
    based = pt.parse_basis(basis, n)
    g = values(data.draw, ring, [based.key(key) for key in pt.build_d(n, r).entries])
    parts = ex.decompose(a, g, basis=basis)
    assert tn.matrix_sum(parts) == a
    for (i, j), s in zip(based.tags(), parts):
        assert iv.is_special(s, i, j)


OPERATORS = ("_extend_operator", "_decompose_operator", "_express_operator")


def test_each_operator_is_built_once_per_cell(monkeypatch):
    built = []
    build = ex._build

    def recording(name, n, r, width, run):
        built.append((name, n, r))
        return build(name, n, r, width, run)

    monkeypatch.setattr(ex, "_build", recording)
    for name in OPERATORS:
        getattr(ex, name).cache_clear()

    def calls():
        for ring in (Z6, Z, Ring.rationals()):
            for n, r in [(4, 3), (5, 2)]:
                a = ex.extend(tn.TensorMatrix.identity(n, r - 1, ring))
                ex.decompose(a)
                ex.decompose(a, basis="col:1")
                ex.express_in_permutation_span(a)

    def misses():
        return [getattr(ex, name).cache_info().misses for name in OPERATORS]

    calls()
    first = Counter(built)
    assert max(first.values()) == 1
    assert {("extend", 5, 2), ("decompose", 5, 2), ("express", 3, 2)} <= set(first)
    # express at (5,2) and (4,2) are products, not runs; (4,3) is read off,
    # and decomposition at n <= r + 1 only copies
    assert not {("express", 5, 2), ("express", 4, 3), ("decompose", 4, 3)} & set(first)
    assert ex._express_operator.cache_info().currsize == 3
    assert misses() == [getattr(ex, name).cache_info().currsize for name in OPERATORS]
    before = misses()
    calls()
    assert Counter(built) == first  # the second round built nothing
    assert misses() == before


@pytest.mark.parametrize("name,call", [
    ("_extend_operator", lambda: ex.extend(tn.TensorMatrix.identity(5, 1, Z))),
    ("_decompose_operator", lambda: ex.decompose(tn.TensorMatrix.identity(5, 2, Z))),
    ("_express_operator", lambda: ex.express_in_permutation_span(tn.TensorMatrix.identity(5, 2, Z))),
])
def test_a_corrupted_coefficient_fails_verification(monkeypatch, name, call):
    call()
    op = getattr(ex, name)(5, 2)
    coefs = array(op.coefs.typecode, op.coefs)
    coefs[list(op.cols).index(0)] += 1  # a coefficient of the scalar rho^r, 1 for the identity
    bad = ex._Operator(op.starts, op.cols, coefs)
    monkeypatch.setattr(ex, name, lambda n, r: bad)
    with pytest.raises(ex.ConstructionFailure):
        call()


def test_a_failing_build_names_the_operation_and_the_cell():
    with pytest.raises(ex.ConstructionFailure) as err:
        ex.decompose(tn.TensorMatrix.identity(6, 2, Z6))
    assert str(err.value).startswith(
        "cannot build the decompose operator at (n, r) = (6, 2): forced chain for block 2"
    )
    assert isinstance(err.value.__cause__, ex.ConstructionFailure)
    assert str(err.value.__cause__).startswith("forced chain for block 2")


def test_membership_and_construction_read_only_the_compact_orbit_table():
    ix.omega_orbits.cache_clear()
    a = ex.extend(tn.TensorMatrix.identity(4, 2, Z6))
    iv.check_membership(a)
    ex.decompose(a)
    ex.express_in_permutation_span(a)
    assert ix.omega_orbits.cache_info().currsize == 0  # no representatives kept
    orbit_of, leads = ix.orbit_table(4, 3)
    assert orbit_of.typecode == leads.typecode == "I"
    want_of, reps = ix.omega_orbits(4, 3)
    assert list(orbit_of) == want_of
    indices = ix.all_indices(4, 3)
    assert [(indices[p // 64], indices[p % 64]) for p in leads] == reps


def test_extension_at_n_one_is_the_copy_rule_at_any_degree():
    # no tower coordinates are read, and nothing recurses r levels deep
    assert ex.extend(tn.TensorMatrix(1, 5000, Z6, [3])).data == [3]


N_ZERO = [
    ("check_membership", lambda: iv.check_membership(tn.TensorMatrix(0, 2, Z6, []))),
    ("restrict", lambda: iv.restrict(tn.TensorMatrix(0, 2, Z6, []))),
    ("extend", lambda: ex.extend(tn.TensorMatrix(0, 1, Z6, []))),
    ("extend-q", lambda: ex.extend(tn.TensorMatrix(0, 1, Ring.rationals(), []), verify=False)),
    ("decompose", lambda: ex.decompose(tn.TensorMatrix(0, 2, Z6, []))),
    ("express", lambda: ex.express_in_permutation_span(tn.TensorMatrix(0, 2, Z6, []))),
]


@pytest.mark.parametrize("call", [c for _, c in N_ZERO], ids=[name for name, _ in N_ZERO])
def test_n_zero_is_a_value_error_naming_n(call):
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        call()


@pytest.mark.parametrize(
    "case",
    construction_golden.load_cases(),
    ids=lambda c: "%s-%s-%d-%d-%s" % (c["op"], c["basis"], c["n"], c["r"], c["ring"]),
)
def test_outputs_equal_the_recursive_construction(case):
    assert construction_golden.digest(construction_golden.run_case(case)) == case["digest"]
