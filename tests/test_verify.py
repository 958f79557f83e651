import pytest

from swdual import verify as vf
from swdual.rings import Ring

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
    with pytest.raises(vf.CapExceeded):
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


def test_span_subgroup_variant():
    full = vf.span_dimension_w(3, 1, Q)
    sub = vf.span_dimension_w(3, 1, Q, subgroup="w_n_minus_1")
    assert full == 5 and sub <= full
    with pytest.raises(ValueError):
        vf.span_dimension_w(3, 1, Q, subgroup="w_0")


def test_psi_side_oracle():
    # dim End over the permutation group equals the number of set
    # partitions of 2r elements into at most n blocks
    dim, rank = vf.psi_side_dimensions(2, 2, Q)
    assert dim == rank == 8  # S(4,1) + S(4,2) = 1 + 7
    dim, rank = vf.psi_side_dimensions(3, 2, Q)
    assert dim == rank == 14  # 1 + 7 + 6
    dim, rank = vf.psi_side_dimensions(4, 2, Q)
    assert dim == rank == 15  # B(4): full partition algebra acts faithfully


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
    assert set(vf.verify_duality(2, 1, Z6, samples=1).timings) == {"total"}
