import pytest

from homgroups import (
    HomGroup,
    SearchConfig,
    SubsetHandle,
    cauchy_search,
    center,
    centralizer,
    coset,
    coset_partition,
    enumerate_hom_subgroups,
    enumerate_hom_groups,
    fixture,
    is_abelian,
    is_hom_subgroup,
    lagrange_check,
    subgroup_defect,
)
from oracles import subgroups_by_subset_filter

TRIVIAL = HomGroup(((0,),), (0,), 0)


def _small_structures():
    out = [fixture(n) for n in ("z3a", "z6a", "d3a", "z5a")]
    for n in range(1, 6):
        out.extend(enumerate_hom_groups(SearchConfig(order=n, include_groups=True)))
    return out


class TestIsHomSubgroup:
    def test_z6a_known_subgroups(self, z6a):
        assert is_hom_subgroup(z6a, {0, 3})
        assert is_hom_subgroup(z6a, {0, 2, 4})

    def test_trivial_and_full(self, stock_fixture):
        assert is_hom_subgroup(stock_fixture, {stock_fixture.unit})
        assert is_hom_subgroup(stock_fixture, set(range(stock_fixture.n)))

    def test_z6a_non_subgroup(self, z6a):
        assert not is_hom_subgroup(z6a, {0, 1})
        assert "0*1 = 5" in subgroup_defect(z6a, {0, 1})

    def test_missing_unit_reported(self, z6a):
        assert "unit" in subgroup_defect(z6a, {3})

    def test_twist_instability_reported(self, d3a):
        # {1, rs} is product-closed in the group sense but moves under the twist
        defect = subgroup_defect(d3a, {0, 4})
        assert defect is not None

    def test_empty_subset_rejected(self, z6a):
        with pytest.raises(ValueError):
            is_hom_subgroup(z6a, set())

    def test_out_of_range_rejected(self, z3a):
        with pytest.raises(ValueError):
            is_hom_subgroup(z3a, {0, 9})

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_non_int_member_rejected(self, z3a, bad):
        with pytest.raises(ValueError, match="non-integer"):
            is_hom_subgroup(z3a, [0, bad])


class TestEnumerate:
    def test_z6a_exact_list(self, z6a):
        got = [h.sorted_members() for h in enumerate_hom_subgroups(z6a)]
        assert got == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]

    def test_z5a_only_trivial_and_full(self, z5a):
        got = [h.sorted_members() for h in enumerate_hom_subgroups(z5a)]
        assert got == [(0,), (0, 1, 2, 3, 4)]

    def test_d3a_list(self, d3a):
        got = [h.sorted_members() for h in enumerate_hom_subgroups(d3a)]
        assert got == [(0,), (0, 3), (0, 1, 2), (0, 1, 2, 3, 4, 5)]

    def test_trivial_structure(self):
        assert [h.sorted_members() for h in enumerate_hom_subgroups(TRIVIAL)] == [(0,)]

    def test_matches_subset_filter_oracle(self):
        for G in _small_structures():
            pruned = [frozenset(h.members) for h in enumerate_hom_subgroups(G)]
            assert pruned == subgroups_by_subset_filter(G)

    def test_all_twist_stable(self):
        for G in _small_structures():
            for H in enumerate_hom_subgroups(G):
                assert {G.alpha(h) for h in H.members} == set(H.members)


class TestCoset:
    def test_z6a_examples(self, z6a):
        assert coset(z6a, [0, 3], 1, "left").sorted_members() == (2, 5)
        assert coset(z6a, [0, 2, 4], 1, "left").sorted_members() == (1, 3, 5)

    def test_unit_coset_is_the_subgroup(self):
        for G in _small_structures():
            for H in enumerate_hom_subgroups(G):
                for side in ("left", "right"):
                    assert coset(G, H, G.unit, side).members == H.members

    def test_sizes_match(self):
        for G in _small_structures():
            for H in enumerate_hom_subgroups(G):
                for g in range(G.n):
                    assert len(coset(G, H, g, "left")) == len(H)
                    assert len(coset(G, H, g, "right")) == len(H)

    def test_rejects_non_subgroup(self, z6a):
        with pytest.raises(ValueError, match="not a Hom-subgroup"):
            coset(z6a, [0, 1], 2, "left")

    def test_rejects_bad_side(self, z6a):
        with pytest.raises(ValueError):
            coset(z6a, [0, 3], 1, "middle")

    @pytest.mark.parametrize("bad", [True, False, 1.0])
    def test_element_must_be_an_int(self, z3a, bad):
        with pytest.raises(ValueError, match="index"):
            coset(z3a, [0], bad)


class TestCosetPartition:
    def test_z6a_order_two_subgroup(self, z6a):
        blocks = coset_partition(z6a, [0, 3], "left")
        assert [b.sorted_members() for b in blocks] == [(0, 3), (2, 5), (1, 4)]
        assert [b.representative for b in blocks] == [0, 1, 2]

    def test_z6a_order_three_subgroup(self, z6a):
        blocks = coset_partition(z6a, [0, 2, 4], "left")
        assert [b.sorted_members() for b in blocks] == [(0, 2, 4), (1, 3, 5)]

    def test_full_subgroup_single_block(self, stock_fixture):
        blocks = coset_partition(stock_fixture, range(stock_fixture.n), "left")
        assert len(blocks) == 1
        assert blocks[0].sorted_members() == tuple(range(stock_fixture.n))

    def test_partitions_exactly(self):
        for G in _small_structures():
            for H in enumerate_hom_subgroups(G):
                for side in ("left", "right"):
                    blocks = coset_partition(G, H, side)
                    assert len(blocks) == G.n // len(H)
                    seen = set()
                    for b in blocks:
                        assert not (seen & b.members)
                        seen |= b.members
                    assert seen == set(range(G.n))

    def test_membership_lemma(self):
        # g*H equals H exactly when g lies in H
        for G in _small_structures():
            for H in enumerate_hom_subgroups(G):
                for g in range(G.n):
                    equal = coset(G, H, g, "left").members == H.members
                    assert equal == (g in H.members)

    def test_intersection_lemma(self):
        for G in _small_structures():
            for H in enumerate_hom_subgroups(G):
                cosets = [coset(G, H, g, "left").members for g in range(G.n)]
                for A in cosets:
                    for B in cosets:
                        assert not (A & B) or A == B


class TestLagrange:
    def test_z6a_divisors(self, z6a):
        assert lagrange_check(z6a).divisors == (1, 2, 3, 6)

    def test_z5a_divisors(self, z5a):
        assert lagrange_check(z5a).divisors == (1, 5)

    def test_d3a_divides(self, d3a):
        report = lagrange_check(d3a)
        assert all(6 % e.order == 0 for e in report.entries)

    def test_index_product(self):
        for G in _small_structures():
            for entry in lagrange_check(G).entries:
                assert entry.order * entry.index == G.n


class TestCenter:
    def test_d3a_trivial_center(self, d3a):
        assert center(d3a).sorted_members() == (0,)

    def test_z6a_full_center(self, z6a):
        assert center(z6a).sorted_members() == (0, 1, 2, 3, 4, 5)

    def test_abelian_center_is_everything(self):
        for G in _small_structures():
            if is_abelian(G):
                assert len(center(G)) == G.n

    def test_center_is_always_a_subgroup(self):
        for G in _small_structures():
            assert is_hom_subgroup(G, center(G))


class TestCentralizer:
    def test_d3a_rotation(self, d3a):
        assert centralizer(d3a, 1).sorted_members() == (0, 1, 2)
        assert is_hom_subgroup(d3a, centralizer(d3a, 1))

    def test_unit_centralizer_full(self, stock_fixture):
        got = centralizer(stock_fixture, stock_fixture.unit)
        assert len(got) == stock_fixture.n

    def test_abelian_always_full(self, z6a):
        for x in range(6):
            assert len(centralizer(z6a, x)) == 6

    def test_commuting_set_can_fail_closure(self, d3a):
        # the commuting set of a reflection moved by the twist is not
        # product-closed, so it is no Hom-subgroup; this pins the actual
        # behavior rather than the always-a-subgroup claim
        got = centralizer(d3a, 4)
        assert got.sorted_members() == (0, 4)
        assert not is_hom_subgroup(d3a, got)
        assert "not closed under product" in subgroup_defect(d3a, got)

    def test_bounds(self, z3a):
        with pytest.raises(ValueError):
            centralizer(z3a, 3)

    @pytest.mark.parametrize("bad", [True, False, 1.0])
    def test_element_must_be_an_int(self, z3a, bad):
        with pytest.raises(ValueError):
            centralizer(z3a, bad)


class TestCauchy:
    def test_z6a_witnesses(self, z6a):
        entries = cauchy_search(z6a).entries
        assert [(e.prime, e.witness.sorted_members()) for e in entries] == [
            (2, (0, 3)),
            (3, (0, 2, 4)),
        ]

    def test_z5a_full_carrier_witness(self, z5a):
        entries = cauchy_search(z5a).entries
        assert [(e.prime, e.witness.sorted_members()) for e in entries] == [
            (5, (0, 1, 2, 3, 4)),
        ]

    def test_trivial_structure_empty(self):
        assert cauchy_search(TRIVIAL).entries == ()

    def test_witness_sizes_match_their_primes(self):
        for G in _small_structures():
            for entry in cauchy_search(G).entries:
                if entry.witness is not None:
                    assert len(entry.witness) == entry.prime

    def test_klein_twist_has_no_order_two_subgroup(self):
        # the explorer can come back empty: cycling the three involutions
        # of the Klein group leaves no order-2 subset twist-stable, so
        # p = 2 divides the order yet admits no witness
        klein_twist = HomGroup(
            ((0, 2, 3, 1), (2, 0, 1, 3), (3, 1, 0, 2), (1, 3, 2, 0)),
            (0, 2, 3, 1),
            0,
        )
        entries = cauchy_search(klein_twist).entries
        assert [(e.prime, e.witness) for e in entries] == [(2, None)]
        assert [h.sorted_members() for h in enumerate_hom_subgroups(klein_twist)] == [
            (0,),
            (0, 1, 2, 3),
        ]


class TestSubsetHandle:
    def test_bitmask_and_sorting(self, z6a):
        h = SubsetHandle(z6a, frozenset({4, 0, 2}))
        assert h.bitmask == 0b10101
        assert h.sorted_members() == (0, 2, 4)
        assert 2 in h and 1 not in h

    def test_rejects_out_of_range(self, z3a):
        with pytest.raises(ValueError):
            SubsetHandle(z3a, frozenset({5}))

    @pytest.mark.parametrize("members", [{0, True}, {0, 1.0}, (1, False)])
    def test_rejects_non_int_members(self, z3a, members):
        with pytest.raises(ValueError, match="non-integer"):
            SubsetHandle(z3a, members)
