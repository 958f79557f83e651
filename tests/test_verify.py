import itertools
import json
import time
import types

import pytest

import reference as ref

from swdual import diagrams as dg
from swdual import extension as ex
from swdual import indices as ix
from swdual import verify as vf
from swdual.rings import Ring, sparse_rank

Q = Ring.rationals()
F2 = Ring.modular(2)
F3 = Ring.modular(3)
Z6 = Ring.modular(6)


def test_centraliser_dimension_rank_one_formula():
    for n in range(2, 7):
        assert vf.centraliser_dimension(n, 1, Q) == (n - 1) ** 2 + 1
    assert vf.centraliser_dimension(3, 0, Q) == 1


def test_known_small_dimensions():
    assert vf.centraliser_dimension(3, 2, Q) == 6
    assert vf.centraliser_dimension(4, 2, Q) == 23
    assert vf.span_dimension_w(2, 2, Q) == 2
    assert vf.span_dimension_w(4, 2, Q) == 23


def test_centraliser_basis_members_are_invariants():
    from swdual.invariants import check_membership

    dim, basis = vf.centraliser_dimension(3, 2, Q, with_basis=True)
    assert dim == 6 and len(basis) == 6
    for m in basis:
        assert check_membership(m).in_E


def test_field_required():
    with pytest.raises(ValueError):
        vf.centraliser_dimension(3, 2, Z6)
    with pytest.raises(ValueError):
        vf.span_dimension_w(3, 2, Z6)


def test_cap_enforced_and_overridable():
    with pytest.raises(ix.CapExceeded):
        vf.centraliser_dimension(5, 5, Q)
    # the override flag merely disables the guard; don't actually run 5^5


def test_negative_n_is_refused():
    for unsafe_large in (False, True):
        with pytest.raises(ValueError, match="n must be non-negative"):
            vf.centraliser_dimension(-1, 3, Q, unsafe_large=unsafe_large)
    with pytest.raises(ValueError, match="n must be non-negative"):
        vf.verify_duality(-2, 2, Q)


@pytest.mark.parametrize("ring", [Q, F3, Z6, Ring.integers()], ids=lambda ring: ring.name)
def test_negative_r_is_refused_on_every_ring(ring):
    with pytest.raises(ValueError, match=r"^r must be non-negative, got -1$"):
        vf.verify_duality(3, -1, ring)


def test_span_dimension_w_at_3_1():
    assert vf.span_dimension_w(3, 1, Q) == 5


def test_psi_side_oracle():
    # dim End over the permutation group equals the number of set
    # partitions of 2r elements into at most n blocks
    dim, rank = vf.psi_side_dimensions(2, 2, Q)
    assert dim == rank == 8  # S(4,1) + S(4,2) = 1 + 7
    dim, rank = vf.psi_side_dimensions(3, 2, Q)
    assert dim == rank == 14  # 1 + 7 + 6
    dim, rank = vf.psi_side_dimensions(4, 2, Q)
    assert dim == rank == 15  # B(4): full partition algebra acts faithfully


# 43,947 classes at (4,5), each row checked against the orbit-basis
# square without elimination
@pytest.mark.parametrize("n,r,ring", [(4, 4, Q), (5, 4, F3), (4, 5, Q)],
                         ids=["4-4-q", "5-4-z/3", "4-5-q"])
def test_psi_side_at_ranks_four_and_five_matches_the_stirling_sum(n, r, ring):
    dim = vf.wn_end_dimension(n, r)
    assert vf.psi_side_dimensions(n, r, ring) == (dim, dim)


def test_the_psi_side_refuses_a_large_rank_before_building_a_word():
    # B(2r) diagrams are counted first; n = 1 passes the n^2r cap at any r
    start = time.perf_counter()
    with pytest.raises(ix.CapExceeded):
        vf.psi_side_dimensions(1, 10**6, Q)
    assert time.perf_counter() - start < 1
    # B(12) > 2^20 at (3, 6), though its 88,574 classes would fit
    with pytest.raises(ix.CapExceeded, match=r"^rank 6 has more than 1048576 diagrams, "):
        vf.psi_side_dimensions(3, 6, Q)


def _break_psi_row(monkeypatch, word, change):
    """Make ``_psi_rows`` apply ``change(row, words)`` to the row of the
    diagram ``word``."""
    rows = vf._psi_rows

    def broken(n, r, words, diagrams):
        for d, row in zip(diagrams, rows(n, r, words, diagrams)):
            if d == word:
                change(row, words)
            yield row

    monkeypatch.setattr(vf, "_psi_rows", broken)


@pytest.mark.parametrize("change", [
    lambda row, words: row.pop(words.index((0, 1, 0, 2))),
    lambda row, words: row.update({words.index((0, 1, 0, 2)): 2}),
    lambda row, words: row.update({words.index((0, 1, 2, 2)): 1}),
], ids=["own-word-dropped", "own-word-not-one", "as-many-letters"])
def test_a_psi_row_off_the_orbit_basis_is_an_internal_failure(monkeypatch, capsys, change):
    from swdual import cli

    _break_psi_row(monkeypatch, (0, 1, 0, 2), change)
    with pytest.raises(ex.ConstructionFailure, match=r"diagram word \[0, 1, 0, 2\] "):
        vf.psi_side_dimensions(3, 2, Q)
    assert cli.main(["verify", "--n", "3", "--r", "2", "--ring", "q"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal failure: the psi row of diagram word [0, 1, 0, 2] ")
    assert err.count("\n") == 1


def test_a_psi_row_with_a_coarser_extra_class_passes(monkeypatch):
    # a 1 at a word with fewer letters, though not a coarsening, keeps the
    # square unitriangular
    _break_psi_row(monkeypatch, (0, 1, 0, 2),
                   lambda row, words: row.update({words.index((0, 0, 1, 1)): 1}))
    assert vf.psi_side_dimensions(3, 2, Q) == (14, 14)


def test_a_class_count_off_the_stirling_sum_is_an_internal_failure(monkeypatch):
    monkeypatch.setattr(vf, "wn_end_dimension", lambda n, r: 15)
    with pytest.raises(ex.ConstructionFailure, match=r"^14 W_n classes at \(3, 2\), not the "
                                                     r"Stirling sum 15$"):
        vf.psi_side_dimensions(3, 2, Q)


@pytest.mark.parametrize("r", range(5))
def test_the_wn_classes_are_the_diagram_words_in_n_letters(r):
    diagrams = dg.restricted_growth_words(2 * r, 2 * r)
    for n in range(1, 9):
        assert [w for w in diagrams if max(w, default=-1) < n] == \
            dg.restricted_growth_words(2 * r, n)


def test_verify_duality_field():
    report = vf.verify_duality(3, 2, Q)
    assert report.ok and report.surjective_phi
    assert report.dim_span_w == report.dim_centraliser == 6
    doc = report.to_json()
    assert doc["schema"] == "swd/1" and doc["surjective_phi"] is True
    assert doc["psi_side"]["surjective_psi"] is True


def test_verify_duality_over_prime_fields():
    for ring in (F2, F3):
        report = vf.verify_duality(3, 2, ring)
        assert report.ok, report.to_json()


def test_verify_duality_non_field_membership_route():
    report = vf.verify_duality(2, 1, Z6, seed=5, samples=4)
    assert report.ok
    assert report.membership_checks["samples"] == 4
    report = vf.verify_duality(3, 2, Ring.modular(4), seed=1, samples=2)
    assert report.ok


def test_verify_half_cells():
    report = vf.verify_half(3, 1, Q)
    assert report.surjective_phi
    assert report.dim_centraliser == 2  # (2-1)^2 + 1 at rank n-1 = 2
    report = vf.verify_half(3, 2, Q)
    assert report.surjective_phi and report.dim_centraliser == 2
    report = vf.verify_half(4, 2, Q)
    assert report.surjective_phi and report.dim_centraliser == 6


def test_half_commutant_direct_agrees():
    for n, r in [(3, 1), (3, 2), (4, 2)]:
        direct = vf.half_commutant_dimension(n, r, Q)
        assert direct == vf.centraliser_dimension(n - 1, r, Q)
        assert direct == vf.special_invariant_dimension(n, r, Q)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)])
def test_half_commutant_rows_on_orbit_leads_match_every_pair(n, r):
    assert vf._half_commutant_rows(n, r) == ref.half_commutant_rows_all_pairs(n, r, Q)


def test_reports_deterministic_given_seed():
    a = vf.verify_duality(3, 2, Z6, seed=7, samples=3).to_json()
    b = vf.verify_duality(3, 2, Z6, seed=7, samples=3).to_json()
    assert a == b
    c = vf.verify_duality(3, 2, Q, seed=1).to_json()
    d = vf.verify_duality(3, 2, Q, seed=2).to_json()
    assert c == d  # field reports carry no sampled data


def test_random_invariant_is_invariant():
    import random

    from swdual.invariants import check_membership

    rng = random.Random(2)
    m = vf.random_invariant(3, 2, Z6, rng)
    assert check_membership(m).in_E


def test_closed_form_values():
    # rank one: (n-1)^2 + 1; beyond the grid the hook-length sum is 588 at
    # (6,3), the value of the Z/3 elimination
    assert [vf.closed_form_centraliser_dimension(n, 1) for n in range(1, 7)] == [
        1, 2, 5, 10, 17, 26]
    assert vf.closed_form_centraliser_dimension(6, 3) == 588
    assert vf.closed_form_centraliser_dimension(3, 0) == 1
    # Bell numbers B(2r) once n >= 2r
    assert [vf.wn_end_dimension(2 * r, r) for r in range(4)] == [1, 2, 15, 203]
    assert vf.wn_end_dimension(1, 3) == 1


@pytest.mark.parametrize("n,r", [(6, 3), (5, 4)])
@pytest.mark.parametrize("ring", [Q, F3], ids=["q", "z/3"])
def test_eliminations_beyond_the_grid_equal_the_closed_form(n, r, ring):
    # 588 at (6,3) and 120 at (5,4), where r >= n - 1 makes it 5!
    want = vf.closed_form_centraliser_dimension(n, r)
    assert want == {(6, 3): 588, (5, 4): 120}[(n, r)]
    assert vf.centraliser_dimension(n, r, ring) == want
    assert vf.span_dimension_w(n, r, ring) == want


# every cell with 2 <= n <= 7 inside the default cap of n^2r entries
CERTIFIED_CELLS = [(n, r) for n in range(2, 8) for r in range(1, 11)
                   if n ** (2 * r) <= ix.MAX_HELD]
FIELDS = [Q, F2, F3, Ring.modular(5)]


def _elimination_oracle(n, r, ring):
    orbit_of, _, live = vf._live_orbits(n, r)
    return len(live) - sparse_rank(ring, vf._slice_equations(n, r, orbit_of, live))


def _count_eliminations(monkeypatch):
    """The number of rows of each ``_sparse_rank`` call of ``verify``."""
    calls = []

    def counted(ring, rows):
        calls.append(len(rows))
        return sparse_rank(ring, rows)

    monkeypatch.setattr(vf, "_sparse_rank", counted)
    return calls


@pytest.mark.parametrize("n,r", CERTIFIED_CELLS)
def test_the_tower_certificate_closes_and_equals_the_elimination(monkeypatch, n, r):
    d = vf._peel(*vf._tower_system(n, r))
    calls = _count_eliminations(monkeypatch)
    got = [vf.centraliser_dimension(n, r, ring) for ring in FIELDS]
    assert got == [d] * len(FIELDS)
    if r < vf._PEEL_FROM_R:
        # below degree 3 each ring eliminates, so got is the oracle's
        assert len(calls) == len(FIELDS)
        return
    assert calls == []  # the certificate closes, with no fallback on any ring
    # the larger eliminations run over Q and one prime, and (7,3)'s, about
    # 4 s a ring, over Q only
    rings = {(7, 3): [Q], (6, 3): [Q, F3], (5, 4): [Q, F3], (4, 5): [Q, F3]}.get((n, r), FIELDS)
    assert [_elimination_oracle(n, r, ring) for ring in rings] == [d] * len(rings)


@pytest.mark.parametrize("r", [1, 2, 6, 1000])
def test_at_n_one_nothing_is_eliminated_and_the_tower_closes(monkeypatch, r):
    # E(1, r) is the scalars: each line of a 1 x 1 minor is its one entry,
    # so the slice equations have no rows, and the certificate is not run
    calls = _count_eliminations(monkeypatch)
    assert [vf.centraliser_dimension(1, r, ring) for ring in FIELDS] == [1] * len(FIELDS)
    assert calls == [0] * len(FIELDS)
    if r <= 6:
        assert vf._peel(*vf._tower_system(1, r)) == 1


def test_the_peel_forces_by_units_and_counts_distinct_seeds():
    # each row (plus, minus): the unknowns of plus sum to those of minus
    assert vf._peel([((0,), (1,))], [0], 2) == 1
    # x0 + 2 x1 = 0 fixes x1 over Q but not over Z/2: x1 named twice
    assert vf._peel([((0, 1, 1), ())], [0], 2) is None
    # one unknown and no rows: free of rank 1, though seeded twice
    assert vf._peel([], [0], 1) == 1
    assert vf._peel([], [0, 0], 1) is None
    # x1 = x0 and x1 = 2 x0 hold together only at x0 = 0
    assert vf._peel([((0,), (1,)), ((0, 0), (1,))], [0], 2) is None
    # so do x1 = x0 and x0 + x1 = 0, with every coefficient +-1: the
    # second row is left over and fails at x0 = 1
    assert vf._peel([((0,), (1,)), ((0, 1), ())], [0], 2) is None
    # 2 x0 = x1 cuts the seeds down, though packed at a digit width of one
    # bit its sum 2 * 1 - 1 * 2^1 would read 0
    assert vf._peel([((0, 0), (1,))], [0, 1], 2) is None
    # so does x1 = x2 + x3 with x2 = x3 = x0, whose sum would read 0 at a
    # width of one bit as well
    assert vf._peel([((2,), (0,)), ((3,), (0,)), ((1,), (2, 3))], [0, 1], 4) is None
    # an unknown on both sides is named twice
    assert vf._peel([((0, 1), (1,))], [0], 2) is None
    # no row reaches x1: the peel stalls
    assert vf._peel([((0,), ())], [0], 2) is None


@pytest.mark.parametrize("n,r", CERTIFIED_CELLS)
def test_the_tower_rows_are_the_dict_rows_as_sorted_tuples(n, r):
    rows, seeds, unknowns = vf._tower_system(n, r)
    want_rows, want_seeds, want_unknowns = ref.tower_system_dict_rows(n, r)
    assert (list(seeds), unknowns) == (want_seeds, want_unknowns)
    assert list(rows) == sorted(set(rows))
    for plus, minus in rows:
        assert plus == tuple(sorted(plus)) and minus == tuple(sorted(minus))
        assert len(set(plus + minus)) == len(plus) + len(minus) > 0
    signed = [frozenset([*((var, 1) for var in plus), *((var, -1) for var in minus)])
              for plus, minus in rows]
    assert sorted(signed, key=sorted) == sorted(map(frozenset, map(dict.items, want_rows)),
                                                key=sorted)


def test_each_tower_system_is_built_once_and_peeled_on_every_call(monkeypatch):
    vf._tower_system.cache_clear()
    peel, peeled = vf._peel, []
    monkeypatch.setattr(vf, "_peel", lambda *system: peeled.append(system) or peel(*system))
    cells = [(3, 3), (4, 3), (3, 3), (4, 3)]
    assert [vf.centraliser_dimension(n, r, ring) for n, r in cells for ring in FIELDS] == \
        [vf.closed_form_centraliser_dimension(n, r) for n, r in cells for _ in FIELDS]
    assert vf._tower_system.cache_info().misses == 2
    assert len(peeled) == len(cells) * len(FIELDS)
    # every peel of a cell reads the rows kept for it
    assert [system[0] is vf._tower_system(n, r)[0] for (n, r), system in
            zip([cell for cell in cells for _ in FIELDS], peeled)] == [True] * len(peeled)
    # a peel that fails is run again, and falls back, on the next call
    monkeypatch.setattr(vf, "_peel", lambda *system: peeled.append(system) and None)
    calls = _count_eliminations(monkeypatch)
    assert [vf.centraliser_dimension(3, 3, Q) for _ in range(2)] == [6, 6]
    assert len(peeled) == len(cells) * len(FIELDS) + 2 and len(calls) == 2


def _drop_seed(rows, seeds, unknowns):
    return rows, seeds[:-1], unknowns


def _repeat_seed(rows, seeds, unknowns):
    return rows, seeds[:-1] + seeds[:1], unknowns


def _alter_row(change):
    def alter(rows, seeds, unknowns):
        # a row of two unknowns only ties one to the other, so altering one
        # of its coefficients can leave a system of the same rank
        at = next(i for i, (plus, minus) in enumerate(rows) if len(plus) >= 2 and minus)
        return rows[:at] + (change(*rows[at]),) + rows[at + 1 :], seeds, unknowns
    return alter


@pytest.mark.parametrize("fault", [
    _drop_seed, _repeat_seed,
    # coefficient 2 at the first entry of a line: named twice
    _alter_row(lambda plus, minus: (plus + plus[:1], minus)),
    # the sign of its context's variable flipped: moved to the other side
    _alter_row(lambda plus, minus: (tuple(sorted(plus + minus[:1])), minus[1:])),
], ids=["dropped-seed", "repeated-seed", "altered-coefficient", "flipped-sign"])
@pytest.mark.parametrize("n,r", [(3, 3), (4, 3), (5, 3)])
def test_a_broken_certificate_falls_back_to_the_elimination(monkeypatch, fault, n, r):
    system = vf._tower_system
    monkeypatch.setattr(vf, "_tower_system", lambda n, r: fault(*system(n, r)))
    assert vf._peel(*vf._tower_system(n, r)) is None
    calls = _count_eliminations(monkeypatch)
    for ring in FIELDS:
        assert vf.centraliser_dimension(n, r, ring) == _elimination_oracle(n, r, ring)
    assert len(calls) == len(FIELDS)
    # the fault altered a copy: the system kept for the cell still closes
    assert vf._peel(*system(n, r)) == vf.closed_form_centraliser_dimension(n, r)


def test_r_is_bounded_when_n_is_at_most_one():
    for n in (0, 1):
        with pytest.raises(ValueError, match="r must be at most 1000000"):
            vf.centraliser_dimension(n, vf.MAX_R + 1, Q)
    with pytest.raises(ValueError, match="r must be at most"):
        vf.verify_duality(1, 10**8, Q)
    assert vf.centraliser_dimension(1, 5, Q) == vf.span_dimension_w(1, 5, Q) == 1


def test_timings_cover_every_stage_and_stay_out_of_json():
    report = vf.verify_duality(3, 2, Q)
    assert set(report.timings) == {"span", "centraliser", "psi", "total"}
    assert all(t >= 0 for t in report.timings.values())
    doc = report.to_json()
    assert "timings" not in doc
    assert not set(report.timings) & set(doc)
    assert set(vf.verify_duality(2, 1, Z6, samples=1).timings) == {"extend", "express", "total"}
    assert vf.verify_duality(2, 0, Z6).timings["extend"] == 0


def test_stage_timings_read_the_monotonic_clock(monkeypatch):
    # a fake clock ticking by one per read; time.time() would raise
    ticks = itertools.count()
    monkeypatch.setattr(vf, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    report = vf.verify_duality(3, 2, Q)
    assert report.timings == {"span": 1, "centraliser": 1, "psi": 1, "total": 5}
    # three reads per sample, around extend and express, for the 5 samples
    assert vf.verify_duality(3, 2, Z6).timings == {"extend": 5, "express": 5, "total": 16}
    assert vf.verify_half(3, 1, Q).timings == {"total": 1}


def _verify_cli(capsys, *argv):
    from swdual import cli

    code = cli.main(["verify", "--ring", "q", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_a_dimension_mismatch_is_a_witness(monkeypatch, capsys):
    span = vf.span_dimension_w
    monkeypatch.setattr(vf, "span_dimension_w",
                        lambda n, r, ring, unsafe_large=False: span(n, r, ring) - 1)
    witness = {"kind": "dimension-mismatch", "span": 5, "centraliser": 6}
    report = vf.verify_duality(3, 2, Q)
    assert not report.ok and report.surjective_phi is False
    assert report.witnesses == [witness]
    code, doc = _verify_cli(capsys, "--n", "3", "--r", "2")
    assert code == 1 and doc["witnesses"] == [witness]


def test_a_walk_short_of_its_target_ranks_every_row(monkeypatch):
    # at (6, 2) the rank reaches d = 207 once the 455 permutations that
    # move at most five of the six points are held
    n, r, d = 6, 2, 207
    sizes = []
    rank = vf._sparse_rank
    monkeypatch.setattr(vf, "_sparse_rank",
                        lambda ring, rows: sizes.append(len(rows)) or rank(ring, rows))
    assert vf.span_dimension_w(n, r, Q) == d and sizes == [455]
    sizes.clear()
    monkeypatch.setattr(vf, "closed_form_centraliser_dimension", lambda n, r: d + 1)
    assert vf.span_dimension_w(n, r, Q) == d and sizes == [455, 720]
    # rows without coordinate 0 reach d - 1 at most: the walk returns that
    # rank, and the report shows the mismatch
    tower = vf._tower_rows
    monkeypatch.setattr(vf, "_tower_rows", lambda n, r, perms: [
        {c: x for c, x in row.items() if c} for row in tower(n, r, perms)])
    report = vf.verify_duality(n, r, Q)
    assert report.witnesses == [{"kind": "dimension-mismatch", "span": d - 1, "centraliser": d}]


def test_an_excision_mismatch_is_a_witness(monkeypatch, capsys):
    eta = vf.eta
    monkeypatch.setattr(vf, "eta", lambda a, n, j: ref.scale(eta(a, n, j), Q.from_int(2)))
    witnesses = [{"kind": "excision-mismatch", "w": [1, 2, 3]},
                 {"kind": "excision-mismatch", "w": [2, 1, 3]}]
    report = vf.verify_half(3, 1, Q)
    assert not report.ok and report.witnesses == witnesses
    code, doc = _verify_cli(capsys, "--n", "3", "--r", "1", "--half")
    assert code == 1 and doc["witnesses"] == witnesses


def test_a_half_dimension_mismatch_is_a_witness(monkeypatch, capsys):
    special = vf.special_invariant_dimension
    monkeypatch.setattr(vf, "special_invariant_dimension",
                        lambda n, r, ring, unsafe_large=False: special(n, r, ring) + 1)
    witness = {"kind": "half-dimension-mismatch", "special": 3, "lower": 2}
    report = vf.verify_half(3, 1, Q)
    assert not report.ok and report.witnesses == [witness]
    code, doc = _verify_cli(capsys, "--n", "3", "--r", "1", "--half")
    assert code == 1 and doc["witnesses"] == [witness]
