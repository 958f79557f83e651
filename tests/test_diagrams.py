import itertools
import random

import pytest

import reference as ref

from swdual import diagrams as dg


def blocks_1based(d):
    """Blocks as sets of strings for readable assertions."""
    out = set()
    for b in d.blocks:
        out.add(frozenset(v + 1 if v < d.r else -(v - d.r + 1) for v in b))
    return out


def test_generator_pictures():
    assert blocks_1based(ref.generator_p(1, 1)) == {frozenset({1}), frozenset({-1})}
    assert blocks_1based(ref.generator_p(3, 2)) == {
        frozenset({1, -1}), frozenset({2}), frozenset({-2}), frozenset({3, -3})
    }
    assert blocks_1based(ref.generator_p(2, 1)) == {
        frozenset({1}), frozenset({-1}), frozenset({2, -2})
    }
    assert blocks_1based(ref.generator_pp(2, 1, 2)) == {frozenset({1, 2, -1, -2})}
    assert blocks_1based(ref.generator_s(2, 1, 2)) == {
        frozenset({1, -2}), frozenset({2, -1})
    }
    assert blocks_1based(ref.generator_s(3, 1, 3)) == {
        frozenset({1, -3}), frozenset({3, -1}), frozenset({2, -2})
    }
    with pytest.raises(ValueError):
        ref.generator_p(2, 3)
    with pytest.raises(ValueError):
        ref.generator_s(3, 2, 2)


def test_multiply_examples():
    p1 = ref.generator_p(1, 1)
    out = ref.multiply(p1, p1)
    assert out.exponent == 1 and out.diagram == p1

    pp = ref.generator_pp(2, 1, 2)
    out = ref.multiply(pp, pp)
    assert out.exponent == 0 and out.diagram == pp

    s = ref.generator_s(2, 1, 2)
    out = ref.multiply(s, s)
    assert out.exponent == 0 and out.diagram == ref.identity_diagram(2)

    with pytest.raises(ValueError, match="rank mismatch"):
        ref.multiply(ref.identity_diagram(1), ref.identity_diagram(2))


def test_generator_relations_up_to_rank_4():
    for r in range(1, 5):
        ident = ref.identity_diagram(r)
        for a in range(1, r + 1):
            out = ref.multiply(ref.generator_p(r, a), ref.generator_p(r, a))
            assert out.exponent == 1 and out.diagram == ref.generator_p(r, a)
        for a in range(1, r + 1):
            for b in range(a + 1, r + 1):
                out = ref.multiply(ref.generator_pp(r, a, b), ref.generator_pp(r, a, b))
                assert out.exponent == 0 and out.diagram == ref.generator_pp(r, a, b)
                out = ref.multiply(ref.generator_s(r, a, b), ref.generator_s(r, a, b))
                assert out.exponent == 0 and out.diagram == ident


def test_identity_neutral():
    for r in (1, 2, 3):
        ident = ref.identity_diagram(r)
        for d in dg.enumerate_diagrams(r):
            left = ref.multiply(ident, d)
            right = ref.multiply(d, ident)
            assert left == right == ref.ScaledDiagram(0, d)


def test_associativity_exhaustive_rank_1():
    diagrams = dg.enumerate_diagrams(1)
    for d1, d2, d3 in itertools.product(diagrams, repeat=3):
        ab = ref.multiply(d1, d2)
        bc = ref.multiply(d2, d3)
        left = ref.multiply(ab.diagram, d3)
        right = ref.multiply(d1, bc.diagram)
        assert left.diagram == right.diagram
        assert ab.exponent + left.exponent == bc.exponent + right.exponent


def test_associativity_random_rank_2():
    diagrams = dg.enumerate_diagrams(2)
    rng = random.Random(42)
    for _ in range(10000):
        d1, d2, d3 = (rng.choice(diagrams) for _ in range(3))
        ab = ref.multiply(d1, d2)
        bc = ref.multiply(d2, d3)
        left = ref.multiply(ab.diagram, d3)
        right = ref.multiply(d1, bc.diagram)
        assert left.diagram == right.diagram
        assert ab.exponent + left.exponent == bc.exponent + right.exponent


def test_enumeration_counts_are_bell_numbers():
    assert len(dg.enumerate_diagrams(1)) == 2
    assert len(dg.enumerate_diagrams(2)) == 15
    assert len(dg.enumerate_diagrams(3)) == 203
    # deterministic order
    first = [d.format() for d in dg.enumerate_diagrams(2)]
    again = [d.format() for d in dg.enumerate_diagrams(2)]
    assert first == again
    assert len(set(first)) == 15


@pytest.mark.parametrize("r", range(5))
def test_enumeration_follows_the_set_partition_walk(r):
    want = [dg.Diagram(r, blocks) for blocks in ref.set_partitions(range(2 * r))]
    assert dg.enumerate_diagrams(r) == want


def test_restricted_growth_words():
    assert dg.restricted_growth_words(0, 0) == [()]
    assert dg.restricted_growth_words(2, 0) == []
    assert dg.restricted_growth_words(3, 2) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    assert len(dg.restricted_growth_words(3, 3)) == 5


def test_half_algebra_membership():
    assert dg.is_half_algebra_member(ref.identity_diagram(3))
    assert not dg.is_half_algebra_member(ref.generator_p(3, 3))
    assert not dg.is_half_algebra_member(ref.generator_s(3, 1, 3))


def test_half_algebra_closed_under_multiplication():
    for rank in (2, 3):
        half = [d for d in dg.enumerate_diagrams(rank) if dg.is_half_algebra_member(d)]
        for d1 in half:
            for d2 in half:
                assert dg.is_half_algebra_member(ref.multiply(d1, d2).diagram)
    # rank 4 sampled
    half4 = [d for d in dg.enumerate_diagrams(4) if dg.is_half_algebra_member(d)]
    rng = random.Random(7)
    for _ in range(2000):
        d1, d2 = rng.choice(half4), rng.choice(half4)
        assert dg.is_half_algebra_member(ref.multiply(d1, d2).diagram)


def test_text_format_round_trip():
    text = "{1,3,3',4'}|{2,1'}|{4}|{5,2',5'}"
    d = ref.parse_diagram(text)
    assert d.r == 5
    assert d.format() == text
    for r in (1, 2):
        for d in dg.enumerate_diagrams(r):
            assert ref.parse_diagram(d.format()) == d


def test_canonical_form_rejects_bad_blocks():
    with pytest.raises(ValueError):
        dg.Diagram(1, [(0,)])  # misses vertex 1'
    with pytest.raises(ValueError):
        dg.Diagram(1, [(0, 1), (1,)])  # overlap


def test_permutation_diagram_acts_as_place_permutation():
    d = ref.permutation_diagram((2, 1, 3))
    assert blocks_1based(d) == {
        frozenset({1, -2}), frozenset({2, -1}), frozenset({3, -3})
    }
