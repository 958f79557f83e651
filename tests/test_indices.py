import itertools
import random
import time

import pytest

import reference as ref

from swdual import diagrams as dg
from swdual import gibson as gb
from swdual import indices as ix
from swdual import patterns as pt
from swdual import verify as vf
from swdual.rings import Ring


def test_lexicographic_order_and_ranks():
    idxs = ix.all_indices(3, 2)
    assert idxs == sorted(idxs)
    assert idxs[0] == (1, 1) and idxs[-1] == (3, 3)
    for k, idx in enumerate(idxs):
        assert ix.index_rank(3, idx) == k
        assert ix.index_from_rank(3, 2, k) == idx


def test_formatting():
    assert ix.format_index((4, 3, 2)) == "432"
    assert ix.format_index((4, 13, 2)) == "4,13,2"
    assert ix.parse_index("432") == (4, 3, 2)
    assert ix.parse_index("4,13,2") == (4, 13, 2)
    # at a given degree a text is read to that length, and "10" is (10,) at r = 1
    assert ix.parse_index("10") == ix.parse_index("10", 2) == (1, 0)
    assert ix.parse_index("10", 1) == (10,) and ix.parse_index("432", 1) == (432,)
    assert ix.parse_index(" 4, 13 ,2", 3) == (4, 13, 2)
    assert ix.parse_index("", 0) == ()
    for text, r in [("10", 3), ("4,13,2", 2), ("1,2", 1)]:
        with pytest.raises(ValueError):
            ix.parse_index(text, r)


def test_value_type_examples():
    # a b b c a b c with a,b,c distinct
    assert ix.value_type((1, 2, 2, 3, 1, 2, 3)) == ((1, 5), (2, 3, 6), (4, 7))
    assert ix.value_type((1, 1, 1)) == ((1, 2, 3),)
    assert ix.value_type((1, 2, 3)) == ((1,), (2,), (3,))


def test_actions_and_commutation():
    assert ix.act_left((2, 1), (1, 1, 2, 2)) == (2, 2, 1, 1)
    # transposing places 1,2 moves the value from place 1 to place 2
    assert ref.act_right((1, 2, 3), (2, 1, 3)) == (2, 1, 3)
    rng = random.Random(2)
    perms3 = ix.all_permutations(3)
    for _ in range(50):
        i = tuple(rng.randrange(1, 4) for _ in range(3))
        w = rng.choice(perms3)
        s = rng.choice(perms3)
        assert ix.act_left(w, ref.act_right(i, s)) == ref.act_right(ix.act_left(w, i), s)
        # orbit invariants
        assert ix.value_type(ix.act_left(w, i)) == ix.value_type(i)
        assert sorted(ref.act_right(i, s)) == sorted(i)  # the weight


def test_right_action_is_a_right_action():
    rng = random.Random(9)
    perms = ix.all_permutations(4)
    for _ in range(50):
        i = tuple(rng.randrange(1, 4) for _ in range(4))
        s, t = rng.choice(perms), rng.choice(perms)
        st = ref.perm_compose(t, s)  # apply s first, then t
        assert ref.act_right(ref.act_right(i, s), t) == ref.act_right(i, st)


def test_sharp_and_injective_indices():
    assert len(ix.injective_indices(5, 2)) == 20
    assert ix.injective_indices(2, 3) == []
    assert ix.injective_indices(3, 2) == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)
    ]


def test_injective_indices_are_the_distinct_value_filter_of_all_indices():
    for n in range(7):
        for r in range(8):
            want = [idx for idx in ix.all_indices(n, r) if len(set(idx)) == r]
            assert ix.injective_indices(n, r) == want, (n, r)
    assert ix.injective_indices(3, 40) == []  # at once, with no 3^40 walk


def test_alpha_slices():
    # element 12 of I'(3,2) lies in exactly the slices {12,32} and {12,13}
    assert sorted(m for m in ix.alpha_slices(3, 2).values() if (1, 2) in m) == [
        [(1, 2), (1, 3)], [(1, 2), (3, 2)]]
    for n, r in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        slices = ix.alpha_slices(n, r)
        counts = {idx: 0 for idx in ix.injective_indices(n, r)}
        for (alpha, ctx), members in slices.items():
            assert len(members) == n - r + 1
            for m in members:
                counts[m] += 1
        assert set(counts.values()) == {r}


def test_omega_orbit_counts():
    _, leads = ix.omega_orbits(2, 1)
    assert len(leads) == 4
    _, leads = ix.omega_orbits(2, 2)
    assert len(leads) == 10
    # orbit of (12, 21) contains (21, 12)
    orbit_of, _ = ix.omega_orbits(2, 2)
    size = 4
    a = orbit_of[ix.index_rank(2, (1, 2)) * size + ix.index_rank(2, (2, 1))]
    b = orbit_of[ix.index_rank(2, (2, 1)) * size + ix.index_rank(2, (1, 2))]
    assert a == b


def test_value_type_count_matches_bounded_set_partitions():
    def partitions_into_at_most(r, n):
        count = 0
        for p in _set_partitions(list(range(r))):
            if len(p) <= n:
                count += 1
        return count

    def _set_partitions(elems):
        if not elems:
            yield []
            return
        first, rest = elems[0], elems[1:]
        for p in _set_partitions(rest):
            for k in range(len(p)):
                yield p[:k] + [[first] + p[k]] + p[k + 1 :]
            yield [[first]] + p

    for n in range(1, 5):
        for r in range(1, 5):
            seen = {ix.value_type(i) for i in ix.all_indices(n, r)}
            assert len(seen) == partitions_into_at_most(r, n)


# at n = 1 every key is 0; at n = 2 from r = 4 on there are more columns
# than codes, so the power sums stop at p_3; the sums of (r + 1)^code are
# the shorter key at (2, 4), (2, 8), (3, 5), (3, 6), (4, 3), (4, 4) and (4, 5)
@pytest.mark.parametrize("n,r", [(1, 0), (1, 1), (1, 200), (2, 1), (2, 4), (2, 8), (3, 1),
                                 (3, 5), (3, 6), (4, 3), (4, 4), (4, 5), (5, 3), (8, 2),
                                 (12, 1)])
def test_orbit_table_keys_equal_the_former_keys(n, r):
    orbit_of, leads = ix.orbit_table(n, r)
    assert (list(orbit_of), list(leads)) == ref.orbit_table_base_keys(n, r)


def test_l_sets():
    assert set(ix.l_closure(5, 2, 1)) == {
        i for i in ix.injective_indices(5, 2) if 1 in i
    }
    assert set(ix.l_closure(5, 2, 2)) == {(1, 2), (2, 1)}


def test_renumberings():
    assert ix.embed_index((1, 2, 3), 2) == (1, 3, 4)
    assert ref.collapse_index((1, 3, 4), 2) == (1, 2, 3)
    for skip in range(1, 5):
        for idx in itertools.permutations(range(1, 4), 3):
            assert ref.collapse_index(ix.embed_index(idx, skip), skip) == idx


def test_w0_and_inverse():
    for w in ix.all_permutations(4):
        assert ref.perm_compose(w, ix.perm_inverse(w)) == ix.perm_identity(4)


class _Admitted(Exception):
    pass


# the first size of each enumeration past MAX_HELD = 2^20 items and the
# last within it: 10! = 3,628,800 and 9! = 362,880; |I'(n, 2)| =
# 1,049,600 and 1,047,552; B(12) = 4,213,597 and B(10) = 115,975 diagrams
# (B(11) = 678,570 words); ((n-1)^2 + 1) n^2 = 1,116,225 and 985,088 Gibson
# entries; n |F(n-1, 2)| = 1,220,961 and 930,260 per-block pattern labels
@pytest.mark.parametrize(
    "build,past,within,items",
    [(ix.all_permutations, (10,), (9,), "permutations"),
     (ix.injective_indices, (1025, 2), (1024, 2), "injective indices"),
     (dg.enumerate_diagrams, (6,), (5,), "diagrams"),
     (dg.restricted_growth_words, (12, 12), (11, 11), "diagrams"),
     (gb.gibson_basis, (33,), (32,), "entries"),
     (pt.build_f, (21, 2), (20, 2), "entries"),
     (pt.build_d, (21, 2), (20, 2), "entries")],
    ids=["permutations", "injective", "diagrams", "words", "gibson", "build_f", "build_d"],
)
def test_each_enumeration_refuses_its_first_size_past_the_bound(monkeypatch, build, past,
                                                                 within, items):
    start = time.perf_counter()
    with pytest.raises(ix.CapExceeded, match="has more than 1048576 %s" % items):
        build(*past)
    assert time.perf_counter() - start < 1
    hold = ix.hold_at_most

    def admit(counts, owner, what):
        hold(counts, owner, what)
        if what == items:  # the count passed: stop before anything is built
            raise _Admitted

    monkeypatch.setattr(ix, "hold_at_most", admit)
    with pytest.raises(_Admitted):
        build(*within)


def test_walks_past_the_bound_are_refused_at_once():
    Q, Z6 = Ring.rationals(), Ring.modular(6)
    for call in (lambda: vf.verify_duality(10, 1, Q), lambda: vf.verify_duality(10, 1, Z6),
                 lambda: vf.verify_half(10, 3, Q), lambda: vf.span_dimension_w(10, 3, Q),
                 lambda: pt.build_f(60, 2)):
        start = time.perf_counter()
        with pytest.raises(ix.CapExceeded):
            call()
        assert time.perf_counter() - start < 1


def test_huge_counts_stop_at_the_bound():
    with pytest.raises(ix.CapExceeded, match="^x has more than 1048576 y, the most"):
        ix.hold_at_most(itertools.count(1), "x", "y")  # stops at 2^20 + 1
    with pytest.raises(ix.CapExceeded):
        ix.injective_indices(10**12, 10**12)
    with pytest.raises(ix.CapExceeded):
        dg.restricted_growth_words(10**12, 10**12)
