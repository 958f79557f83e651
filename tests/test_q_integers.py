"""Q construction and membership run on integers over one common denominator.

``fixtures/q_golden.json`` holds outputs of the Fraction-kernel
construction that came before (see ``q_golden.py``); they are compared by
``repr``, which pins the ``Fraction`` raw type as well as the values.  The
properties check homogeneity: dividing an input and its free values by k
divides every construction by k and leaves every membership report as it
was.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import q_golden
import reference as ref

from swdual import extension as ex
from swdual import indices as ix
from swdual import invariants as iv
from swdual import patterns as pt
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import Ring, clear_denominators, over_denominator

Q = Ring.rationals()
# cells (n, r) of the matrix a construction returns
CELLS = [(2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
divisors = st.integers(1, 12)


def fractional_invariant(draw, n, r):
    coeffs = {w: draw(fractions) for w in ix.all_permutations(n)}
    return ref.reconstruct(n, r, Q, coeffs)


def divided(a, k):
    return tn.TensorMatrix(a.n, a.r, Q, [x / k for x in a.data])


def datas(matrices):
    assert all(m.ring == Q for m in matrices)
    return repr([m.data for m in matrices])


@pytest.mark.parametrize(
    "case",
    q_golden.load_cases(),
    ids=lambda c: "%s-%s-%d-%d" % (c["op"], c["basis"], c["n"], c["r"]),
)
def test_outputs_equal_the_fraction_kernel_by_repr(case):
    out = q_golden.run_case(case)
    assert repr(q_golden.raw(out)) == case["expected"]
    assert all(m.ring == Q for m in q_golden.matrices(out))


def test_golden_fixture_has_fractional_inputs_and_outputs():
    cases = q_golden.load_cases()
    assert {(c["op"], c["basis"]) for c in cases} == {
        ("extend", None), ("decompose", "last-row"), ("decompose", "col:1"), ("express", None)
    }
    assert {(c["n"], c["r"] + (c["op"] == "extend")) for c in cases} == {(3, 2), (4, 2)}
    for den in (2, 3, 6):
        assert any("/%d" % den in v for c in cases for v in c["matrix"])
        assert any("/%d" % den in v for c in cases for _, v in c["values"])
        assert any(", %d)" % den in c["expected"] for c in cases)


def test_common_denominator_helpers():
    values = [Fraction(1, 2), Fraction(-2, 3), 5, Fraction(0)]
    assert clear_denominators(values) == (6, [3, -4, 30, 0])
    assert clear_denominators([]) == (1, [])
    back = over_denominator(6, [3, -4, 30, 0])
    assert repr(back) == repr([Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(0)])
    assert repr(over_denominator(1, [2, 0])) == repr([Fraction(2), Fraction(0)])
    repeated = {"a": 2, "b": -3, "c": 2, "d": 2}
    assert over_denominator(4, repeated.values()) == [Fraction(1, 2), Fraction(-3, 4)] + [Fraction(1, 2)] * 2


def test_common_denominator_bound_is_exact():
    # 2**28 bits over 4096 values: L may have 65,536 bits, and 2**65535 has
    # 65,536 while 2**65536 has one more
    zeros = [Fraction(0)] * 4095
    assert clear_denominators([Fraction(1, 2**65535)] + zeros)[0] == 2**65535
    with pytest.raises(ValueError, match="common denominator of 4096 values over 65536 bits"):
        clear_denominators([Fraction(1, 2**65536)] + zeros)
    # the bound is on L, not on any one denominator
    with pytest.raises(ValueError, match="over 65536 bits"):
        clear_denominators([Fraction(1, 3**30000), Fraction(1, 5**20000)] + zeros[1:])


def large_denominators(count):
    """``count`` pairwise coprime denominators of about 33 bits each: the
    products of consecutive pairs of the largest primes below 2**17."""
    sieve = bytearray([1]) * (1 << 17)
    sieve[:2] = b"\0\0"
    for p in range(2, 363):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 1 << 17, p)))
    primes = [p for p in range(len(sieve) - 1, 1, -1) if sieve[p]][: 2 * count]
    return [p * q for p, q in zip(primes[::2], primes[1::2])]


def past_the_bound_off_the_mismatches():
    """(4,3) entries over Q that pass H: zero at the value-type mismatches
    and 1/d at the other 1,024 positions, each d the product of three
    denominators of :func:`large_denominators`, so L has about 100,000 bits."""
    ds = large_denominators(3 * 1024)
    ds = iter(x * y * z for x, y, z in zip(ds[::3], ds[1::3], ds[2::3]))
    return [Fraction(0) if m else Fraction(1, next(ds)) for m in iv._h_mask(4, 3)]


def test_many_distinct_large_denominators_are_refused_in_linear_memory():
    # L would have about 135,000 bits for a and 100,000 for c, over the
    # 65,536 allowed at 4,096 values: every Q construction refuses the input
    # before scaling a value, by the bound, or by H on the values as they are
    # where decompose meets a, which fails H; membership decides H on the
    # values as they are, so it reports a non-member, and restrict refuses
    # one, without clearing a denominator
    n, r = 4, 3
    a = tn.TensorMatrix(n, r, Q, [Fraction(1, d) for d in large_denominators(4096)])
    b = tn.TensorMatrix(n, r - 1, Q, a.data[: (n ** (r - 1)) ** 2])
    c = tn.TensorMatrix(n, r, Q, past_the_bound_off_the_mismatches())
    calls = [lambda: ex.decompose(c), lambda: ex.express_in_permutation_span(a)]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match="common denominator of 4096 values"):
                call()
        with pytest.raises(iv.NotInvariantError, match='"kind": "H"'):
            ex.decompose(a)
        assert iv.check_membership(a).first_violation["kind"] == "H"
        with pytest.raises(iv.NotInvariantError):
            iv.restrict(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # 4096 scaled entries would take about 70 MB
    # b has 256 values, whose L of about 8,400 bits is under the bound, and
    # fails H: extend refuses it as a non-invariant
    with pytest.raises(iv.NotInvariantError):
        ex.extend(b)


def test_an_invariant_past_the_bound_is_refused_too():
    # the 24 permutation coefficients have coprime denominators of about
    # 3,300 bits: L has about 79,000 bits, over the 65,536 allowed
    n, r = 4, 3
    dens = large_denominators(24 * 100)
    a = tn.TensorMatrix(n, r, Q)
    for k, w in enumerate(ix.all_permutations(n)):
        den = math.prod(dens[100 * k : 100 * k + 100])
        a = a.add(ref.scale(tn.phi(w, n, r, Q), Fraction(1, den)))
    for call in (iv.check_membership, iv.restrict, ex.decompose, ex.express_in_permutation_span):
        with pytest.raises(ValueError, match="common denominator of 4096 values over 65536 bits"):
            call(a)


@PROPERTY
@given(st.data())
def test_extend_is_homogeneous(data):
    n, r = data.draw(st.sampled_from(CELLS))
    b = fractional_invariant(data.draw, n, r - 1)
    f = {key: data.draw(fractions) for key in pt.build_f(n, r).entries}
    k = data.draw(divisors)
    got = ex.extend(divided(b, k), {key: x / k for key, x in f.items()})
    assert datas([got]) == datas([divided(ex.extend(b, f), k)])


@PROPERTY
@given(st.data())
def test_decompose_and_express_are_homogeneous(data):
    n, r = data.draw(st.sampled_from(CELLS))
    a = fractional_invariant(data.draw, n, r)
    basis = data.draw(st.sampled_from(["last-row", "col:1", "row:2"]))
    based = pt.parse_basis(basis, n)
    g = {based.key(key): data.draw(fractions) for key in pt.build_d(n, r).entries}
    k = data.draw(divisors)
    got = ex.decompose(divided(a, k), {key: x / k for key, x in g.items()}, basis=basis)
    assert datas(got) == datas([divided(s, k) for s in ex.decompose(a, g, basis=basis)])
    coeffs = ex.express_in_permutation_span(a)
    want = {w: x / k for w, x in coeffs.items()}
    assert repr(ex.express_in_permutation_span(divided(a, k))) == repr(want)


@st.composite
def members_and_broken_copies(draw):
    """A fractional invariant as it is, or with H, S or G broken by a
    fractional amount; returns the matrix and the predicate broken."""
    n, r = draw(st.sampled_from(CELLS))
    a = fractional_invariant(draw, n, r)
    kind = draw(st.sampled_from(["member", "H", "S", "G"]))
    delta = draw(fractions.filter(bool))
    data = list(a.data)
    if kind == "H":  # plus delta times the all-ones matrix: only H breaks
        data = [x + delta for x in data]
    elif kind in ("S", "G"):
        idxs = ix.all_indices(n, r)
        u = draw(st.sampled_from(idxs))
        v = draw(st.sampled_from([x for x in idxs if ix.value_type(x) == ix.value_type(u)]))
        pairs = {(u, v)}
        if kind == "G":  # the whole orbit moves: S holds
            pairs = {
                (ref.act_right(u, s), ref.act_right(v, s))
                for s in itertools.permutations(range(1, r + 1))
            }
        for x, y in pairs:
            data[ix.index_rank(n, x) * a.size + ix.index_rank(n, y)] += delta
    return tn.TensorMatrix(n, r, Q, data), kind


@PROPERTY
@given(members_and_broken_copies(), divisors)
def test_membership_report_is_homogeneous(case, k):
    a, kind = case
    report = iv.check_membership(a).to_json()
    assert iv.check_membership(divided(a, k)).to_json() == report
    assert report["in_E"] is (kind == "member")
    assert report["in_H"] is (kind != "H")
    if kind == "G":
        assert report["in_S"] and report["in_H"]
    early = iv.check_membership(a, stop_early=True).to_json()
    assert iv.check_membership(divided(a, k), stop_early=True).to_json() == early


def test_outputs_survive_a_json_round_trip():
    assert q_golden.check() == []


@pytest.mark.parametrize("name", ["z/6", "z", "q"])
def test_verify_refuses_n_zero_on_every_ring(name):
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        vf.verify_duality(0, 2, Ring.parse(name))


@pytest.mark.parametrize("predicate", ["H", "S"])
def test_membership_clears_one_denominator_after_h(monkeypatch, predicate):
    n, r = 3, 2
    a = ref.reconstruct(n, r, Q, {w: Fraction(k + 1, k + 2)
                                  for k, w in enumerate(ix.all_permutations(n))})
    # (11, 12) is a value-type mismatch; (12, 21) shares an orbit with (21, 12)
    u, v = {"H": ((1, 1), (1, 2)), "S": ((1, 2), (2, 1))}[predicate]
    data = list(a.data)
    data[ix.index_rank(n, u) * n**r + ix.index_rank(n, v)] += Fraction(1, 7)
    calls = []
    monkeypatch.setattr(iv, "clear_denominators",
                        lambda values: calls.append(1) or clear_denominators(values))
    reports = []
    for stop_early in (True, False):
        calls.clear()
        report = iv.check_membership(tn.TensorMatrix(n, r, Q, data), stop_early=stop_early)
        assert not report.in_E and report.first_violation["kind"] == predicate
        # H reads the values as they are; S and G read L a, so only a
        # report that stops at H clears nothing
        assert calls == ([] if predicate == "H" and stop_early else [1])
        reports.append(report.to_json())
    calls.clear()
    assert iv.check_membership(a).in_E and calls == [1]  # a member clears once
    # past the bound, a non-member is reported from its values as they are
    monkeypatch.setattr(iv, "clear_denominators", _past_the_bound)
    assert [iv.check_membership(tn.TensorMatrix(n, r, Q, data), stop_early=stop_early).to_json()
            for stop_early in (True, False)] == reports


def test_membership_compares_no_fraction(monkeypatch):
    # a library-built member holds a distinct Fraction object per entry;
    # S compares L a, so Fraction.__eq__ never runs
    n, r = 4, 3
    a = ref.reconstruct(n, r, Q, {w: Fraction(k % 5 + 1, k % 7 + 2)
                                  for k, w in enumerate(ix.all_permutations(n))})
    equal = Fraction.__eq__
    calls = []
    monkeypatch.setattr(Fraction, "__eq__",
                        lambda x, y: calls.append(1) or equal(x, y))
    report = iv.check_membership(a)
    monkeypatch.undo()
    assert report.in_E and calls == []
    data = list(a.data)
    data[1] += Fraction(1, 3)  # entry (111, 112): a value-type mismatch
    monkeypatch.setattr(Fraction, "__eq__",
                        lambda x, y: calls.append(1) or equal(x, y))
    report = iv.check_membership(tn.TensorMatrix(n, r, Q, data))
    monkeypatch.undo()
    assert report.first_violation == {"kind": "H", "row": "111", "col": "112"}
    assert calls == []


def _past_the_bound(values):
    raise ValueError("common denominator past the bound")


def test_g_on_l_a_gives_the_report_of_g_on_the_values(monkeypatch):
    # G is homogeneous, so an S-failing matrix gets the same verdicts and
    # witness from L a as from its values as they are, which G reads when L
    # is past the bound; each copy moves one entry off the value-type
    # mismatches
    n, r = 3, 2
    a = ref.reconstruct(n, r, Q, {w: Fraction(k + 1, k + 2)
                                  for k, w in enumerate(ix.all_permutations(n))})
    copies = []
    for pos in [p for p, mismatch in enumerate(iv._h_mask(n, r)) if not mismatch]:
        data = list(a.data)
        data[pos] += Fraction(1, 7)
        copies.append(tn.TensorMatrix(n, r, Q, data))
    cleared = [iv.check_membership(m).to_json() for m in copies]
    s_failing = [k for k, doc in enumerate(cleared) if not doc["in_S"]]
    # all but the 9 pairs of constant indices, each its own orbit
    assert len(s_failing) == 36 and not any(cleared[k]["in_G"] for k in s_failing)
    monkeypatch.setattr(iv, "clear_denominators", _past_the_bound)
    assert [iv.check_membership(copies[k]).to_json() for k in s_failing] == [
        cleared[k] for k in s_failing]


@pytest.mark.parametrize("operation", [ex.extend, ex.decompose], ids=["extend", "decompose"])
def test_construction_clears_no_denominator_when_h_fails(monkeypatch, operation):
    n, r = 3, 2
    a = ref.reconstruct(n, r, Q, {w: Fraction(k + 1, k + 2)
                                  for k, w in enumerate(ix.all_permutations(n))})
    data = list(a.data)
    data[ix.index_rank(n, (1, 1)) * n**r + ix.index_rank(n, (1, 2))] += Fraction(1, 7)
    calls = []
    for module in (ex, iv):
        monkeypatch.setattr(module, "clear_denominators",
                            lambda values: calls.append(1) or clear_denominators(values))
    with pytest.raises(iv.NotInvariantError, match='"kind": "H"'):
        operation(tn.TensorMatrix(n, r, Q, data))
    assert calls == []
