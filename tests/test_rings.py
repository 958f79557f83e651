import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import solve_linear_system_over_field
from reference import determinant

from swdual.rings import Ring, sparse_rank

Z = Ring.integers()
Q = Ring.rationals()
Z4 = Ring.modular(4)
Z6 = Ring.modular(6)
F2 = Ring.modular(2)
F97 = Ring.modular(97)


def test_descriptor_basics():
    assert Q.is_field()
    assert F2.is_field()
    assert F97.is_field()
    assert not Z.is_field()
    assert not Z4.is_field()
    assert not Z6.is_field()
    assert Ring.parse("z/4") == Z4
    assert Ring.parse("q") == Q
    assert Ring.parse("Z") == Z
    assert Z4.name == "z/4"
    with pytest.raises(ValueError):
        Ring.modular(1)
    with pytest.raises(ValueError):
        Ring.parse("gf(7)")


def test_field_decided_by_miller_rabin():
    big = Ring.modular(2**61 - 1)  # a Mersenne prime, far beyond trial division
    assert big.is_field()
    # a Carmichael number, and strong pseudoprimes to base 2 and to 2, 3, 5, 7
    for m in (561, 2047, 3215031751, 6, 4):
        assert not Ring.modular(m).is_field()
    for m in range(2, 2000):
        trial = all(m % d for d in range(2, int(m**0.5) + 1))
        assert Ring.modular(m).is_field() == trial


def test_sum_reduces_once():
    assert Z6.sum([5, 4, 3]) == 0 and Z6.sum([]) == 0
    assert Z.sum([5, -7]) == -2
    total = Q.sum([Fraction(1, 2), Fraction(1, 3)])
    assert total == Fraction(5, 6) and isinstance(total, Fraction)
    assert isinstance(Q.sum([]), Fraction)


def test_spec_arithmetic_examples():
    assert Z6.add(Z6.from_int(4), Z6.from_int(5)) == 3
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Z.mul(Z.from_int(-1), Z.from_int(-1)) == 1


def test_rationals_lowest_terms():
    v = Q.parse_value("6/-4")
    assert v == Fraction(-3, 2)
    assert Q.format_value(v) == "-3/2"
    assert Q.format_value(Fraction(4, 2)) == "2"


def test_zero_denominator_is_a_value_error():
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            Q.parse_value(text)


def test_more_than_one_slash_is_a_value_error_naming_the_entry():
    for text in ("1/2/3", " 1//2 ", "/1/"):
        with pytest.raises(ValueError, match="more than one '/' in %r" % text):
            Q.parse_value(text)


def test_serialisation_round_trip():
    for ring, samples in [
        (Z, ["-12", "0", "5"]),
        (Q, ["-3/2", "7", "22/7"]),
        (Z6, ["0", "5"]),
    ]:
        for s in samples:
            assert ring.format_value(ring.parse_value(s)) == s


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def rings(draw):
    """Z, Q, or Z/m for m in 2..10^6, composite moduli included."""
    kind = draw(st.sampled_from(["z", "q", "mod"]))
    if kind == "mod":
        return Ring.modular(draw(st.integers(2, 10**6)))
    return Ring.parse(kind)


def values(ring):
    """Raw values of the ring: fractions over Q, else images of integers."""
    if ring.kind == "q":
        return st.fractions(max_denominator=10**6)
    return st.integers(-(10**12), 10**12).map(ring.from_int)


@st.composite
def ring_and_values(draw, count=3):
    ring = draw(rings())
    return ring, draw(st.lists(values(ring), min_size=count, max_size=count))


def repeated_add(ring, xs):
    acc = ring.zero
    for x in xs:
        acc = ring.add(acc, x)
    return acc


@PROPERTY
@given(ring_and_values())
def test_ring_axioms_random(case):
    ring, (a, b, c) = case
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.add(a, ring.zero) == a == ring.mul(a, ring.one)
    if ring.kind == "mod":  # results stay canonical residues
        assert all(0 <= v < ring.modulus for v in (ring.add(a, b), ring.mul(a, b)))


@PROPERTY
@given(rings(), st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12))
def test_from_int_is_a_homomorphism(ring, m, k):
    assert ring.from_int(m + k) == ring.add(ring.from_int(m), ring.from_int(k))
    assert ring.from_int(m * k) == ring.mul(ring.from_int(m), ring.from_int(k))
    assert ring.from_int(-m) == ring.neg(ring.from_int(m))


@PROPERTY
@given(ring_and_values(count=6), st.lists(st.integers(0, 6), max_size=4))
def test_sub_neg_sum_sums_and_reduce_agree_with_repeated_add(case, cuts):
    ring, xs = case
    a, b = xs[:2]
    assert ring.add(ring.sub(a, b), b) == a
    assert ring.add(a, ring.neg(a)) == ring.zero
    assert ring.sub(a, b) == ring.add(a, ring.neg(b))
    assert ring.sum(xs) == repeated_add(ring, xs)
    bounds = [0] + sorted(cuts) + [len(xs)]
    groups = [xs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    assert ring.sums(groups) == [repeated_add(ring, g) for g in groups]
    # reduce takes exact sums of raw values to their ring sums
    pairs = list(zip(xs, reversed(xs)))
    assert ring.reduce(x + y for x, y in pairs) == [ring.add(x, y) for x, y in pairs]


def sparse(rows):
    """Dense rows of raw values as sparse dicts column -> nonzero value."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_rank_examples():
    one, zero = Q.one, Q.zero
    assert sparse_rank(Q, sparse([[one, zero], [zero, one]])) == 2
    assert sparse_rank(Q, sparse([[one, one], [Q.from_int(2), Q.from_int(2)]])) == 1
    assert sparse_rank(F2, sparse([[F2.one, F2.one], [F2.one, F2.from_int(-1)]])) == 1
    with pytest.raises(ValueError, match="requires a field"):
        sparse_rank(Z, [{0: Z.one}])


def test_rank_agrees_with_minor_expansion():
    # every matrix up to 4x4 would be huge; sample densely instead, plus
    # exhaust all 2x2 matrices with entries in {-2..2}
    vals = [-2, -1, 0, 1, 2]
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    rows = [[Q.from_int(a), Q.from_int(b)], [Q.from_int(c), Q.from_int(d)]]
                    rank = sparse_rank(Q, sparse(rows))
                    det = determinant(Q, rows)
                    if det != 0:
                        assert rank == 2
                    else:
                        assert rank < 2
    rng = random.Random(17)
    for size in (3, 4):
        for _ in range(60):
            rows = [
                [Q.from_int(rng.randrange(-2, 3)) for _ in range(size)]
                for _ in range(size)
            ]
            rank = sparse_rank(Q, sparse(rows))
            det = determinant(Q, rows)
            assert (det != 0) == (rank == size)


def test_solve_examples():
    one, zero = Q.one, Q.zero
    sol = solve_linear_system_over_field(
        Q, [[one, zero], [zero, one]], [Q.from_int(3), Q.from_int(4)]
    )
    assert sol == ([Q.from_int(3), Q.from_int(4)], [])

    sol = solve_linear_system_over_field(Q, [[one, one]], [one])
    particular, basis = sol
    assert particular == [one, zero]
    assert basis == [[Q.from_int(-1), one]]

    assert solve_linear_system_over_field(Q, [[zero]], [one]) is None
    with pytest.raises(ValueError):
        solve_linear_system_over_field(Z, [[Z.one]], [Z.one])
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_linear_system_over_field(Q, [[one]], [one, one])


def test_solve_random_consistency():
    rng = random.Random(23)
    for ring in (Q, F2, Ring.modular(3)):
        for _ in range(25):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [
                [ring.from_int(rng.randrange(-3, 4)) for _ in range(n)]
                for _ in range(m)
            ]
            x = [ring.from_int(rng.randrange(-3, 4)) for _ in range(n)]
            b = [ring.sum(ring.mul(rows[i][k], x[k]) for k in range(n)) for i in range(m)]
            out = solve_linear_system_over_field(Q if ring is Q else ring, rows, b)
            assert out is not None
            particular, basis = out
            check = [
                ring.sum(ring.mul(rows[i][k], particular[k]) for k in range(n))
                for i in range(m)
            ]
            assert check == b
            for vec in basis:
                zeroed = [
                    ring.sum(ring.mul(rows[i][k], vec[k]) for k in range(n))
                    for i in range(m)
                ]
                assert all(v == ring.zero for v in zeroed)
