"""extend, decompose and express as cached per-(n, r) integer operators.

The extension and decomposition operators are built by the construction
(the rank-one step at degree one, else the block recursion, whose inner
calls apply the operators one rank or one degree down); the express
operator is rows of the extension operator at r = n - 1 and their product
below.  The properties here check,
on random invariants over Z/4, Z/6, Z and Q, that a public call equals the
recursion on the same input by ``repr`` (which pins the raw value type
and the order of the express coefficients), that the round-trip laws
hold over random moduli, that every operator is built once per (n, r)
without going through the public ``extend``, that a failed build is
remembered, that the tower slices read the restriction chain and count
dim E(n, r), that every operator at n <= 5 keeps its rows
(``fixtures/operator_digests.json``), that their packed columns apply as
the row loop on either side of the digit bound and that a build packs
nothing, and that self-verification still catches a corrupted
coefficient, by either route, or a corrupted read-off position.
``construction_golden`` pins the outputs of the whole recursion.
"""

import hashlib
import json
import random
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import construction_golden
import reference as ref

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
    a = tn.TensorMatrix(n, r, ring)
    for w in draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4)):
        a = a.add(ref.scale(tn.phi(tuple(w), n, r, ring), value(draw, ring, 3)))
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


TOWER_CELLS = [(1, 0), (4, 0), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 3), (5, 2), (5, 3),
               (6, 2)]


@pytest.mark.parametrize("ring", [Z, Z6], ids=lambda ring: ring.name)
@pytest.mark.parametrize("n,r", TOWER_CELLS)
@settings(PROPERTY, max_examples=5)
@given(data=st.data())
def test_tower_slices_read_the_restriction_chain(n, r, ring, data):
    a = invariant(data.draw, n, r, ring)
    assert ex._tower(a) == ref.tower(a)


def test_tower_slices_count_the_hook_length_form():
    cells = [(n, r) for n in range(1, 7) for r in range(5)] + [(7, r) for r in range(4)]
    for n, r in cells:
        assert len(ex._tower_slices(n, r)) == pt.closed_form_centraliser_dimension(n, r)


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


def clear_operators():
    """Forget every built operator and every failed build."""
    for cached in (ex._extend_operator, ex._decompose_operator, ex._express_operator):
        cached.cache_clear()
    ex._FAILED_BUILDS.clear()


def test_each_operator_is_built_once_per_cell(monkeypatch):
    built = []
    build = ex._build

    def recording(name, n, r, width, run):
        built.append((name, n, r))
        return build(name, n, r, width, run)

    monkeypatch.setattr(ex, "_build", recording)
    clear_operators()

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
    assert {name for name, _, _ in first} == {"extend", "decompose"}
    assert {("extend", 5, 2), ("decompose", 5, 2)} <= set(first)
    # express at (3,2) is rows of the extension operator, at (5,2) and (4,2)
    # a product; (4,3) is read off, decomposition at n <= r + 1 only copies,
    # and degree one is the rank-one step itself
    assert not {("decompose", 4, 3), ("extend", 5, 1)} & set(first)
    assert ex._express_operator.cache_info().currsize == 3
    assert misses() == [getattr(ex, name).cache_info().currsize for name in OPERATORS]
    before = misses()
    calls()
    assert Counter(built) == first  # the second round built nothing
    assert misses() == before


def corrupted(rows):
    """The operator with 1 added to the first coefficient of input 0, the
    scalar rho^r, whose coefficient is 1 for the identity."""
    k = next(k for k, (cols, _) in enumerate(rows) if 0 in cols)
    cols, coefs = rows[k]
    coefs = array(coefs.typecode, coefs)
    coefs[list(cols).index(0)] += 1
    return ex._Operator(rows[:k] + ((cols, coefs),) + rows[k + 1 :])


@pytest.mark.parametrize("name,call", [
    ("_extend_operator", lambda: ex.extend(tn.TensorMatrix.identity(5, 1, Z))),
    ("_decompose_operator", lambda: ex.decompose(tn.TensorMatrix.identity(5, 2, Z))),
    ("_express_operator", lambda: ex.express_in_permutation_span(tn.TensorMatrix.identity(5, 2, Z))),
])
def test_a_corrupted_coefficient_fails_verification(monkeypatch, name, call):
    call()
    bad = corrupted(getattr(ex, name)(5, 2))
    monkeypatch.setattr(ex, name, lambda n, r: bad)
    for _ in range(2):  # by the row loop, then by the packed columns
        with pytest.raises(ex.ConstructionFailure):
            call()
    assert bad.packed is not None


def test_a_corrupted_read_off_position_fails_verification(monkeypatch):
    # at (4, 3) the coefficients are read off, not computed by an operator
    positions = array("I", ex._read_off_positions(4, 3))
    k = ex._express_order(4, 3).index(ix.perm_identity(4))
    other = k - 1 if k else k + 1
    positions[k], positions[other] = positions[other], positions[k]
    monkeypatch.setattr(ex, "_read_off_positions", lambda n, r: positions)
    with pytest.raises(ex.ConstructionFailure):
        ex.express_in_permutation_span(tn.TensorMatrix.identity(4, 3, Z6))


def test_the_recursion_never_calls_the_public_extend(monkeypatch):
    def public(*args, **kwargs):
        raise AssertionError("a build called extension.extend")

    def clear():
        for name in OPERATORS:
            getattr(ex, name).cache_clear()

    clear()
    monkeypatch.setattr(ex, "extend", public)
    try:
        for name, n, r in [("_extend_operator", 5, 3), ("_decompose_operator", 5, 3),
                           ("_express_operator", 5, 2)]:
            assert getattr(ex, name)(n, r)
    finally:
        clear()  # drop what was built under the patch


# sha256 of the rows of each cached operator at n <= 5, as operator_text
# writes them
OPERATOR_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "operator_digests.json").read_text()
)


def operator_text(rows):
    """One line per row, each "col:coef" term of it separated by spaces."""
    return "\n".join(" ".join("%d:%d" % term for term in zip(*row)) for row in rows)


def pinned_operators():
    """The 26 operators at n <= 5, keyed as in operator_digests.json."""
    got = {}
    for n in range(1, 6):
        for r in range(1, n):
            got["extend %d %d" % (n, r)] = ex._extend_operator(n, r)
            if n > r + 1:
                got["decompose %d %d" % (n, r)] = ex._decompose_operator(n, r)
            got["express %d %d" % (n, r)] = ex._express_operator(n, r)
    assert len(got) == 26
    return got


def test_every_operator_keeps_its_rows():
    got = pinned_operators()
    assert {key: hashlib.sha256(operator_text(rows).encode()).hexdigest()
            for key, rows in got.items()} == OPERATOR_DIGESTS


def row_loop(rows, xs):
    return [sum(c * xs[t] for t, c in zip(cols, coefs)) for cols, coefs in rows]


@pytest.mark.parametrize("inputs", ["small", "under", "past", "negative", "huge"])
def test_the_packed_apply_equals_the_row_loop(inputs):
    rng = random.Random(inputs)
    for rows in pinned_operators().values():
        # the largest |x| whose outputs all lie within 2^31 of zero
        under = ((1 << 31) - 1) // rows.norm
        top = {"small": 5, "under": under, "past": under + 1, "negative": under,
               "huge": 10**30}[inputs]
        sign = -1 if inputs == "negative" else 1
        widest = next(row for row in rows if sum(map(abs, row[1])) == rows.norm)
        assert rows.dense
        for _ in range(4):
            xs = [rng.randint(-top, top) for _ in range(rows.width)]
            # the widest row's output at its extreme, +-top times the norm
            for c, a in zip(*widest):
                xs[c] = sign * top * (1 if a > 0 else -1)
            got = ex._apply(rows, xs)
            assert list(got) == row_loop(rows, xs)
        # packed columns within the digit bound, from the second call on
        # (the operators are cached, so this is at least the fourth), and
        # the row loop past it
        assert isinstance(got, array) == (inputs in ("small", "under", "negative"))


def test_a_sparse_operator_is_never_packed():
    rows = ex._extend_operator(8, 2)  # 2% of its rows x columns are nonzero
    assert not rows.dense
    xs = [k % 6 for k in range(rows.width)]
    for _ in range(3):
        assert ex._apply(rows, xs) == row_loop(rows, xs)
    assert rows.packed is None


def test_a_cold_build_keeps_no_packing_at_a_build_width(monkeypatch):
    packed = []
    pack = ex._Operator.pack
    monkeypatch.setattr(ex._Operator, "pack", lambda rows: packed.append(rows) or pack(rows))
    clear_operators()
    try:
        rows = ex._extend_operator(5, 3)
        # every operator the build applied saw its packed inputs, past the
        # digit bound, so it took the row loop and packed nothing; at (8,2)
        # the build also applies operators to all-zero inputs, which pack
        # nothing either
        ex._extend_operator(8, 2)
        assert packed == []
        b = tn.TensorMatrix.identity(5, 2, Z6)
        a = ex.extend(b)  # one call packs nothing either
        assert packed == []
        assert ex.extend(b) == a  # the second packs the columns at 32 bits
        assert packed == [rows]
        assert len(rows.packed[0]) == rows.width
        assert all(column.bit_length() <= 32 * len(rows) for column in rows.packed[0])
    finally:
        clear_operators()


def test_a_failing_build_names_the_operation_and_the_cell():
    with pytest.raises(ex.ConstructionFailure) as err:
        ex.decompose(tn.TensorMatrix.identity(6, 2, Z6))
    assert str(err.value).startswith(
        "cannot build the decompose operator at (n, r) = (6, 2): forced chain for block 2"
    )
    assert isinstance(err.value.__cause__, ex.ConstructionFailure)
    assert str(err.value.__cause__).startswith("forced chain for block 2")


def test_a_failed_build_is_not_run_again(monkeypatch):
    chain = "forced chain for block 2 row 32 column 43 passed through an undetermined entry"
    at_62 = "cannot build the decompose operator at (n, r) = (6, 2): " + chain
    at_63 = ("cannot build the decompose operator at (n, r) = (6, 3): "
             "cannot build the extend operator at (n, r) = (6, 3): " + at_62)

    def failure(n, r):
        with pytest.raises(ex.ConstructionFailure) as err:
            ex.decompose(tn.TensorMatrix.identity(n, r, Z6))
        return str(err.value), str(err.value.__cause__)

    clear_operators()
    assert failure(6, 2) == (at_62, chain)
    steps = []
    step = ex._decompose_step
    monkeypatch.setattr(ex, "_decompose_step", lambda a, f: steps.append(a.n) or step(a, f))
    assert failure(6, 2) == (at_62, chain)
    assert failure(6, 3) == (at_63, at_63.split(": ", 1)[1])
    assert steps == []
    clear_operators()
    assert failure(6, 2) == (at_62, chain)
    assert steps  # a cleared memo runs the build again


def test_membership_and_construction_read_only_the_compact_orbit_table():
    ix.omega_orbits.cache_clear()
    a = ex.extend(tn.TensorMatrix.identity(4, 2, Z6))
    iv.check_membership(a)
    ex.decompose(a)
    ex.express_in_permutation_span(a)
    assert ix.omega_orbits.cache_info().currsize == 0  # only orbit_table was read
    orbit_of, leads = ix.orbit_table(4, 3)
    assert orbit_of.typecode == leads.typecode == "I"
    want_of, want_leads = ix.omega_orbits(4, 3)
    assert list(orbit_of) == want_of and want_leads is leads
    assert ref.lead_pairs(4, 3, leads) == ref.omega_orbits(4, 3)[1]


def test_extension_at_n_one_is_the_copy_rule_at_any_degree():
    # no tower coordinates are read, and nothing recurses r levels deep
    assert ex.extend(tn.TensorMatrix(1, 5000, Z6, [3])).data == [3]


N_ZERO = [
    ("check_membership", lambda: iv.check_membership(tn.TensorMatrix(0, 2, Z6, []))),
    ("restrict", lambda: iv.restrict(tn.TensorMatrix(0, 2, Z6, []))),
    ("extend", lambda: ex.extend(tn.TensorMatrix(0, 1, Z6, []))),
    ("extend-q", lambda: ex.extend(tn.TensorMatrix(0, 1, Ring.rationals(), []))),
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
