import math
import os
import time

import pytest

from swdual import indices as ix
from swdual import patterns as pt
from swdual import verify as vf

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read().rstrip("\n")


def idx(text):
    return ix.parse_index(text)


def pairs(*items):
    return {(idx(a), idx(b)) for a, b in items}


# -- colouring ------------------------------------------------------------


def test_plain_colouring_golden_5_2():
    c = pt.colour(5, 2)
    assert set(c.ones) == {
        idx(t) for t in "54 53 52 45 43 42 35 34 32 25 24".split()
    }
    assert pt.render_colouring(c) == read_fixture("colouring_i1_52.txt")


def test_modified_colouring_golden_j2():
    c = pt.modified_colouring(5, 2, 2)
    assert set(c.ones) == {idx("54")}


def test_modified_colouring_j3_two_readings():
    # with the place-permutation closure pre-zeroed (the reading used by
    # the pattern construction)
    c = pt.modified_colouring(5, 2, 3)
    assert set(c.ones) == {idx("25"), idx("52"), idx("54")}
    # without it (the reading matching the reference summary row)
    c = pt.modified_colouring(5, 2, 3, zero_l_closure=False)
    assert set(c.ones) == {idx("25"), idx("42"), idx("45"), idx("52"), idx("54")}


def test_colouring_totality_and_slice_coverage():
    for n, r in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]:
        c = pt.colour(n, r)
        members = ix.injective_indices(n, r)
        assert set(c.colour) == set(members)
        assert set(c.colour.values()) <= {0, 1}
        # every slice contains at least one forced (0) element
        for (alpha, ctx), group in ix.alpha_slices(n, r).items():
            assert any(c.colour[m] == 0 for m in group), (alpha, ctx)


def test_colouring_policies_and_determinism():
    a = pt.colour(4, 2, "largest")
    b = pt.colour(4, 2, "largest")
    assert a.colour == b.colour and [e.index for e in a.events] == [
        e.index for e in b.events
    ]
    small = pt.colour(4, 2, "smallest")
    assert small.colour != a.colour
    with pytest.raises(ValueError):
        pt.colour(4, 2, "median")


def test_initial_zero_validation():
    with pytest.raises(ValueError):
        pt.colour(3, 2, initial_zeros=frozenset({(1, 1)}))


# -- base patterns -----------------------------------------------------------


def test_base_pattern_terminal():
    f = pt.base_pattern_f_n1(3)
    assert set(f.entries) == pairs(("2", "2"), ("2", "3"), ("3", "2"), ("3", "3"))
    assert len(pt.base_pattern_f_n1(6)) == 25
    assert set(pt.base_pattern_f_n1(2).entries) == pairs(("2", "2"))
    with pytest.raises(ValueError):
        pt.base_pattern_f_n1(1)


# -- reference pattern values ---------------------------------------------------


def test_f32_and_f43():
    assert pt.build_f(3, 2).entries == ((idx("32"), idx("32")),)
    assert pt.build_f(4, 3).entries == ((idx("432"), idx("432")),)


def test_f42_entries_match_reference_grid():
    expected = pairs(
        ("32", "32"), ("32", "42"), ("32", "43"),
        ("42", "24"), ("42", "32"), ("42", "34"), ("42", "42"), ("42", "43"),
        ("43", "24"), ("43", "32"), ("43", "34"), ("43", "42"), ("43", "43"),
    )
    assert set(pt.build_f(4, 2).entries) == expected
    assert len(pt.build_f(4, 2)) == 13


def test_f53_entries_match_reference_grid():
    all14 = "254 325 352 354 425 432 435 452 453 524 532 534 542 543".split()
    expected = set()
    expected |= {(idx("432"), idx(c)) for c in "432 532 542 543".split()}
    expected |= {
        (idx("532"), idx(c))
        for c in "254 352 354 432 452 453 532 542 543".split()
    }
    expected |= {(idx("542"), idx(c)) for c in all14}
    expected |= {(idx("543"), idx(c)) for c in all14}
    assert set(pt.build_f(5, 3).entries) == expected
    assert len(pt.build_f(5, 3)) == 41


def test_d41_entries_match_reference_grid():
    expected = {
        (2, idx("2"), idx("4")), (2, idx("3"), idx("4")),
        (3, idx("2"), idx("2")), (3, idx("2"), idx("4")),
        (3, idx("3"), idx("2")), (3, idx("3"), idx("4")),
        (4, idx("2"), idx("2")), (4, idx("2"), idx("3")),
        (4, idx("3"), idx("2")), (4, idx("3"), idx("3")),
    }
    assert set(pt.build_d(4, 1).entries) == expected


def test_d52_entries_match_reference_grid():
    def block(j, rows_cols):
        return {(j, idx(p), idx(q)) for p, q in rows_cols}

    expected = set()
    expected |= block(2, [("32", "54"), ("42", "54"), ("43", "54")])
    expected |= block(3, [
        ("32", "52"), ("32", "54"),
        ("42", "25"), ("42", "52"), ("42", "54"),
        ("43", "25"), ("43", "52"), ("43", "54"),
    ])
    expected |= block(4, [
        ("32", "32"), ("32", "52"), ("32", "53"),
        ("42", "25"), ("42", "32"), ("42", "35"), ("42", "52"), ("42", "53"),
        ("43", "25"), ("43", "32"), ("43", "35"), ("43", "52"), ("43", "53"),
    ])
    expected |= block(5, [
        ("32", "32"), ("32", "42"), ("32", "43"),
        ("42", "24"), ("42", "32"), ("42", "34"), ("42", "42"), ("42", "43"),
        ("43", "24"), ("43", "32"), ("43", "34"), ("43", "42"), ("43", "43"),
    ])
    assert set(pt.build_d(5, 2).entries) == expected
    assert len(pt.build_d(5, 2)) == 37


def test_per_block_pattern_examples():
    assert pt.per_block_entries(4, 2, 4) == ((idx("32"), idx("32")),)
    assert pt.per_block_entries(4, 2, 3) == ((idx("32"), idx("42")),)
    assert pt.per_block_entries(4, 2, 1) == ((idx("32"), idx("43")),)


def test_empty_patterns_in_the_uniqueness_regime():
    for n, r in [(2, 2), (2, 3), (3, 3), (4, 4)]:
        assert len(pt.build_f(n, r)) == 0
    for n, r in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        assert len(pt.build_d(n, r)) == 0  # n <= r + 1


def test_f_prime_f_second_partition():
    for n, r in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]:
        fp = set(pt.f_prime_entries(n, r))
        fs = set().union(*(pt.per_block_entries(n, r, j) for j in range(1, n + 1)))
        assert fp | fs == set(pt.build_f(n, r).entries)
        assert not fp & fs
        assert all(row[0] == n for (row, _) in fp)
        assert all(row[0] != n for (row, _) in fs)
        # the block-row labelling is a bijection onto the decomposition pattern
        d = pt.build_d(n, r - 1)
        mapped = {(col[0], row[1:], col[1:]) for (row, col) in fp}
        assert mapped == set(d.entries)
        assert len(fp) == len(d.entries)


def test_terminal_patterns_are_compatible_with_restriction():
    """Excising every entry whose indices contain the top value n leaves
    exactly the pattern one rank down; this is the working content of
    terminality."""
    for n, r in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]:
        upper = set(pt.build_f(n, r).entries)
        survived = {
            (row, col) for (row, col) in upper if n not in row and n not in col
        }
        assert survived == set(pt.build_f(n - 1, r).entries), (n, r)


def test_pattern_json():
    doc = pt.build_f(4, 2).to_json()
    assert doc["n"] == 4 and doc["flavour"] == "extension"
    assert ["32", "32"] in doc["entries"]
    ddoc = pt.build_d(4, 1).to_json()
    assert ["2", "2", "4"] in ddoc["entries"]


# -- rendering ------------------------------------------------------------------


def test_rendered_tables_match_fixtures():
    assert pt.render_pattern(pt.build_f(4, 2), columns="all") == read_fixture(
        "table_f42.txt"
    )
    assert pt.render_pattern(pt.build_f(5, 3), columns="used") == read_fixture(
        "table_f53.txt"
    )
    assert pt.render_decomposition_pattern(
        pt.build_d(4, 1), columns="all"
    ) == read_fixture("table_d41.txt")
    assert pt.render_decomposition_pattern(
        pt.build_d(5, 2), columns="used"
    ) == read_fixture("table_d52.txt")



def _old_closed_form(n, r):
    """dim E(n, r) over every partition of n, by the full hook-length formula."""
    def partitions(m, largest):
        if m == 0:
            yield ()
        for first in range(min(m, largest), 0, -1):
            for rest in partitions(m - first, first):
                yield (first,) + rest

    def degree(shape):
        heights = [sum(1 for part in shape if part > c) for c in range(shape[0])]
        hooks = 1
        for row, part in enumerate(shape):
            for c in range(part):
                hooks *= (part - c) + (heights[c] - row) - 1
        return math.factorial(n) // hooks

    return sum(degree(shape) ** 2 for shape in partitions(n, n) if n - shape[0] <= r)


def test_closed_form_walks_only_the_partitions_it_counts():
    for n in range(1, 13):
        for r in range(5):
            assert pt.closed_form_centraliser_dimension(n, r) == _old_closed_form(n, r), (n, r)
    for n, r in [(100, 2), (1000, 3)]:
        start = time.perf_counter()
        pt.closed_form_centraliser_dimension(n, r)
        assert time.perf_counter() - start < 0.1
    assert vf.closed_form_centraliser_dimension is pt.closed_form_centraliser_dimension


def test_free_pattern_size_is_the_hook_length_difference():
    for n in range(1, 7):
        for r in range(1, 4):
            size = pt.free_pattern_size(n, r)
            assert size == len(pt.build_f(n, r)), (n, r)
            assert size == (pt.closed_form_centraliser_dimension(n, r)
                            - pt.closed_form_centraliser_dimension(n, r - 1))
    assert pt.free_pattern_size(20, 2) == 58141
