import dataclasses
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from homgroups import (
    HomGroup,
    SearchConfig,
    SubsetHandle,
    automorphisms_of,
    cauchy_search,
    center,
    centralizer,
    coset,
    coset_partition,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_hom_subgroups,
    enumerate_hom_groups,
    fixture,
    inner_automorphism,
    is_abelian,
    is_hom_subgroup,
    lagrange_check,
    relabel,
    subgroup_defect,
    twist,
)
from homgroups import subgroups
from homgroups.core import _closure
from oracles import closure_by_all_pairs, hom_subgroups_by_untwisting, subgroups_by_subset_filter

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

    def test_every_subset_with_the_unit_matches_subset_filter(self):
        # The oracle also tests inverses and the twist, which subgroup_defect
        # leaves out.  Each structure is also checked with its unit moved to
        # the last index, so that the unit is not the least member.
        structures = 0
        for n in range(1, 7):
            for G0 in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                structures += 1
                for G in (G0, relabel(G0, tuple(reversed(range(n))))):
                    expected = set(subgroups_by_subset_filter(G))
                    rest = [i for i in range(n) if i != G.unit]
                    for pick in range(1 << len(rest)):
                        S = {G.unit} | {i for bit, i in enumerate(rest) if pick >> bit & 1}
                        assert is_hom_subgroup(G, S) == (frozenset(S) in expected), (G, S)
        assert structures == 280


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


def _group(spec):
    """zn:K, dn:K, or a product A*B*... of those, as a plain group."""
    factors = []
    for part in spec.split("*"):
        kind, k = part.split(":")
        factors.append(cyclic_group(int(k)) if kind == "zn" else dihedral_group(int(k)))
    G = factors[0]
    for H in factors[1:]:
        G = direct_product(G, H)
    return G


def _members(G):
    return [frozenset(h.members) for h in enumerate_hom_subgroups(G)]


def _by_size_and_bitmask(sets):
    return sorted(sets, key=lambda S: (len(S), sum(1 << i for i in S)))


def _shaped_twists(spec, orbits, count=None):
    """The twists of a group, unit 0, by its first count automorphisms
    with that many non-unit orbits."""
    G = _group(spec)
    autos = [a for a in automorphisms_of(G) if sum(1 for c in a.cycles() if 0 not in c) == orbits]
    return [twist(G, a) for a in autos[:count]]


@cache
def _twists(spec):
    G = _group(spec)
    return tuple(twist(G, a) for a in automorphisms_of(G))


@cache
def _subset_oracle(spec, i):
    return tuple(subgroups_by_subset_filter(_twists(spec)[i]))


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _divisor_sum(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _gaussian_binomial(n, k, q=2):
    # number of k-dimensional subspaces of GF(q)^n
    count = 1
    for i in range(k):
        count = count * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return count


CYCLIC_AND_DIHEDRAL = [f"zn:{k}" for k in range(1, 13)] + [f"dn:{k}" for k in range(1, 7)]
SMALL_GROUPS = CYCLIC_AND_DIHEDRAL + ["zn:2*zn:4", "zn:2*zn:2*zn:2", "zn:2*zn:6"]


class TestClosureSearch:
    @pytest.mark.parametrize("spec", SMALL_GROUPS)
    def test_every_twist_matches_subset_filter(self, spec):
        for i, G in enumerate(_twists(spec)):
            assert _members(G) == _by_size_and_bitmask(_subset_oracle(spec, i))

    # The benchmark's audit shapes with the fewest twist orbits each group
    # allows: Z64 and D32 have no automorphism with 13 non-unit orbits.
    @pytest.mark.parametrize(
        "spec, orbits, count",
        [("zn:64", 10, None), ("zn:64", 11, None), ("dn:32", 10, 2), ("dn:32", 11, 2),
         ("zn:2*zn:16", 13, None), ("zn:3*zn:8", 13, None)],
    )
    def test_large_twists_match_untwisting(self, spec, orbits, count):
        shaped = _shaped_twists(spec, orbits, count)
        assert shaped
        for G in shaped:
            assert _members(G) == hom_subgroups_by_untwisting(G)

    def test_relabeled_copy_matches_untwisting(self):
        [G] = _shaped_twists("zn:2*zn:16", 13, 1)
        moved = relabel(G, tuple(reversed(range(G.n))))
        assert moved.unit == G.n - 1
        assert _members(moved) == hom_subgroups_by_untwisting(moved)

    @pytest.mark.parametrize(
        "spec, closed_form, count",
        [
            ("zn:64", _divisor_count(64), 7),
            ("dn:32", _divisor_count(32) + _divisor_sum(32), 69),
            ("zn:2*zn:2*zn:2*zn:2", sum(_gaussian_binomial(4, k) for k in range(5)), 67),
            ("zn:2*zn:2*zn:2*zn:2*zn:2", sum(_gaussian_binomial(5, k) for k in range(6)), 374),
            ("zn:2*zn:2*zn:2*zn:2*zn:2*zn:2", sum(_gaussian_binomial(6, k) for k in range(7)), 2825),
        ],
    )
    def test_identity_twist_counts(self, spec, closed_form, count):
        G = _group(spec)
        got = _members(G)
        assert closed_form == count
        assert len(got) == count
        assert got == hom_subgroups_by_untwisting(G)

    @pytest.mark.parametrize("spec, count", [("zn:2*dn:16", 137), ("zn:4*zn:4*zn:4", 129)])
    def test_identity_twist_lattice_sizes(self, spec, count):
        # D32's 69 is pinned with its closed form above.
        G = _group(spec)
        got = _members(G)
        assert len(got) == count
        assert got == hom_subgroups_by_untwisting(G)

    def test_walk_matches_all_pairs(self):
        # Every generator set of size at most 2, on every structure of order
        # 1-6 with its unit at 0 and moved to the last index.
        structures = 0
        for n in range(1, 7):
            gen_sets = [()] + [(g,) for g in range(n)] + list(combinations(range(n), 2))
            for G0 in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                structures += 1
                for G in (G0, relabel(G0, tuple(reversed(range(n))))):
                    t = G.table.entries
                    for gens in gen_sets:
                        assert _closure(t, G.unit, gens) == closure_by_all_pairs(t, G.unit, gens)
        assert structures == 280

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_closure_is_the_least_hom_subgroup(self, data):
        spec = data.draw(st.sampled_from(CYCLIC_AND_DIHEDRAL))
        i = data.draw(st.integers(0, len(_twists(spec)) - 1))
        G = _twists(spec)[i]
        seed = data.draw(st.sets(st.integers(0, G.n - 1), max_size=3))
        got = _closure(G.table.entries, G.unit, seed)
        assert subgroup_defect(G, got) is None
        containing = [S for S in _subset_oracle(spec, i) if seed <= S]
        assert got == frozenset.intersection(*containing)


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

    def test_matches_the_dedupe_by_value_partition(self):
        # every representative's coset, kept when its block is new
        for n in range(1, 7):
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                for S in (G, relabel(G, [(i + 1) % n for i in range(n)])):
                    for H in enumerate_hom_subgroups(S):
                        for side in ("left", "right"):
                            expected, seen = [], set()
                            for g in range(n):
                                c = coset(S, H, g, side)
                                if c.members not in seen:
                                    seen.add(c.members)
                                    expected.append(c)
                            assert coset_partition(S, H, side) == expected

    def test_subgroup_checked_once(self, z6a, monkeypatch):
        import homgroups.subgroups as subgroups

        calls = []
        check = subgroups.subgroup_defect
        counted = lambda G, S: calls.append(S) or check(G, S)
        monkeypatch.setattr(subgroups, "subgroup_defect", counted)
        assert len(coset_partition(z6a, [0, 3], "right")) == 3
        assert len(calls) == 1

    def test_rejects_non_subgroup(self, z6a):
        with pytest.raises(ValueError, match="not a Hom-subgroup"):
            coset_partition(z6a, [0, 1], "left")

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

    def test_short_coset_is_caught(self, monkeypatch, z6a):
        # lagrange_check relies on coset_partition for every size check
        make = subgroups._coset

        def short(G, sub, g, side):
            c = make(G, sub, g, side)
            return dataclasses.replace(c, members=c.members - {min(c.members)})

        monkeypatch.setattr(subgroups, "_coset", short)
        with pytest.raises(AssertionError):
            lagrange_check(z6a)


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


CAUCHY_PRODUCTS = ["zn:2*zn:4", "zn:2*zn:2*zn:2", "zn:2*zn:6", "zn:3*dn:3"]


def _cauchy_pairs(G):
    return [(e.prime, e.witness and frozenset(e.witness.members)) for e in cauchy_search(G).entries]


def _least_of_each_prime_order(G, subgroups):
    """(p, the least of the subgroups of order p by bitmask, or None) for
    each prime p dividing |G|."""
    primes = [p for p in range(2, G.n + 1) if G.n % p == 0 and all(p % q for q in range(2, p))]
    ordered = _by_size_and_bitmask(subgroups)
    return [(p, next((S for S in ordered if len(S) == p), None)) for p in primes]


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

    def test_every_small_structure_matches_subset_filter(self):
        structures = 0
        for n in range(1, 7):
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                structures += 1
                expected = _least_of_each_prime_order(G, subgroups_by_subset_filter(G))
                assert _cauchy_pairs(G) == expected
        assert structures == 280

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_twists_match_untwisting(self, data):
        # A zn or dn draw is one member of twists_of(kind, k), twisted
        # alone: building every twist of each D_k up to k = 32 takes seconds.
        source = data.draw(st.sampled_from(["zn", "dn", *CAUCHY_PRODUCTS]))
        if source in ("zn", "dn"):
            base = _group(f"{source}:{data.draw(st.integers(1, 32))}")
            G = twist(base, data.draw(st.sampled_from(automorphisms_of(base))))
        else:
            G = data.draw(st.sampled_from(_twists(source)))
        assert _cauchy_pairs(G) == _least_of_each_prime_order(G, hom_subgroups_by_untwisting(G))

    def test_identity_twist_of_z2_to_the_sixth(self):
        G = _group("*".join(["zn:2"] * 6))
        entries = cauchy_search(G).entries
        assert [(e.prime, e.witness.sorted_members()) for e in entries] == [(2, (0, 1))]

    def test_builds_no_subgroup_lattice(self, z6a, monkeypatch):
        import homgroups.subgroups as subgroups

        def refuse(G):
            raise AssertionError("the subgroup lattice was built")

        monkeypatch.setattr(subgroups, "enumerate_hom_subgroups", refuse)
        assert _cauchy_pairs(z6a) == [(2, {0, 3}), (3, {0, 2, 4})]

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

    def test_s3_twisted_by_conjugation_has_no_order_two_subgroup(self):
        # conjugation by the rotation r moves each of the three reflections,
        # so only the rotation subgroup is twist-stable besides the trivial
        # ones, and p = 2 divides 6 without a witness
        S3 = dihedral_group(3)
        G = twist(S3, inner_automorphism(S3, 1))
        entries = cauchy_search(G).entries
        assert [(e.prime, e.witness and e.witness.sorted_members()) for e in entries] == [
            (2, None),
            (3, (0, 1, 2)),
        ]
        assert [h.sorted_members() for h in enumerate_hom_subgroups(G)] == [
            (0,),
            (0, 1, 2),
            (0, 1, 2, 3, 4, 5),
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
