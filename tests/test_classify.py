import hashlib
import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from homgroups import (
    OrderGuardError,
    Permutation,
    SearchConfig,
    are_isomorphic,
    automorphisms_of,
    canonical_form,
    classify_order,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_hom_groups,
    fixture,
    reduce_to_classes,
    relabel,
    twist,
    verify,
)
from homgroups.classify import ClassifyStats, _groups, _relabelings
from homgroups.constructions import _profile
from oracles import (
    automorphisms_by_filter,
    cyclic_automorphisms_by_formula,
    dihedral_automorphisms_by_formula,
    drop_identity_twist,
    hom_group_counts_by_automorphisms,
    hom_groups_by_latin_filter,
    isomorphisms_by_filter,
    labeled_hom_groups_by_relabeling,
    lexmin_classes,
)


def _witness_ok(G, H, f):
    assert f is not None
    assert f(G.unit) == H.unit
    for g in range(G.n):
        assert f(G.alpha(g)) == H.alpha(f(g))
        for k in range(G.n):
            assert f(G.table.entries[g][k]) == H.table.entries[f(g)][f(k)]


class TestEnumerate:
    def test_order_three_is_the_single_stock_table(self, z3a):
        found = enumerate_hom_groups(SearchConfig(order=3))
        assert len(found) == 1
        assert found[0].table == z3a.table
        assert found[0].alpha == z3a.alpha

    def test_order_two_has_no_twisted_structure(self):
        assert enumerate_hom_groups(SearchConfig(order=2)) == []

    def test_order_one(self):
        assert enumerate_hom_groups(SearchConfig(order=1)) == []
        found = enumerate_hom_groups(SearchConfig(order=1, include_groups=True))
        assert len(found) == 1 and found[0].n == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("include_groups", [False, True])
    def test_completeness_against_latin_filter(self, n, include_groups):
        # exact set equality with the unconstrained oracle
        oracle = hom_groups_by_latin_filter(n)
        if not include_groups:
            oracle = drop_identity_twist(oracle)
        found = enumerate_hom_groups(SearchConfig(order=n, include_groups=include_groups))
        assert sorted(g.table.entries for g in found) == sorted(oracle)

    def test_soundness_all_orders(self):
        for n in range(1, 6):
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                assert verify(G.table, G.alpha, G.unit).valid
                assert G.unit == 0

    def test_sorted_by_flattened_table(self):
        found = enumerate_hom_groups(SearchConfig(order=5, include_groups=True))
        tables = [g.table.entries for g in found]
        assert tables == sorted(tables)

    def test_twisted_z5_appears_at_order_five(self, z5a):
        found = enumerate_hom_groups(SearchConfig(order=5))
        assert z5a.table.entries in [g.table.entries for g in found]

    def test_stock_order_six_table_appears(self, z6a):
        found = enumerate_hom_groups(SearchConfig(order=6))
        assert z6a.table.entries in [g.table.entries for g in found]

    def test_guard_refusal(self):
        with pytest.raises(OrderGuardError):
            enumerate_hom_groups(SearchConfig(order=7))
        with pytest.raises(OrderGuardError):
            enumerate_hom_groups(SearchConfig(order=3, max_order_guard=2))
        assert len(enumerate_hom_groups(SearchConfig(order=3, max_order_guard=3))) == 1

    def test_bad_order(self):
        with pytest.raises(ValueError):
            SearchConfig(order=0)

    @pytest.mark.parametrize("order", [True, 3.0, "3"])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(ValueError):
            SearchConfig(order=order)



def _table_twist_pairs(structures):
    return [(G.table.entries, G.alpha.images) for G in structures]


# sha256 of repr(_table_twist_pairs(...)) of the order-8 listing, which
# labeled_hom_groups_by_relabeling(8, include_groups) also gives (1-2 s).
ORDER_8_DIGESTS = {
    False: "17f868ba786f6ae59a43040a53e3415ff0cc7704d15f66fc8d85c063310fb4d3",
    True: "384a0ec1b7ae90ab1f7878166fea3deb5f2e5afc62f0b775f646f6a096ed6659",
}

# The same digest of classify_order(8, include_groups).representatives,
# taken when canonical_form still minimized over every relabeling.
ORDER_8_CLASS_DIGESTS = {
    False: "dd23a25bfa26acc9b8c4cfdfe2150d4a9a8e631412432f8400750d86335b2421",
    True: "258a0b2ead95ec5e4cd713132a14f63219e2989433ac17b4ab8a1093f2efea3d",
}


class TestLabeledListing:
    """enumerate_hom_groups against relabeling every group by brute force."""

    @pytest.mark.parametrize("n", [4, 6, 7])
    @pytest.mark.parametrize("include_groups", [False, True])
    def test_matches_the_relabeling_oracle(self, n, include_groups):
        found = enumerate_hom_groups(SearchConfig(n, include_groups, n))
        assert _table_twist_pairs(found) == labeled_hom_groups_by_relabeling(n, include_groups)

    @pytest.mark.parametrize("include_groups", [False, True])
    def test_order_eight_digest(self, include_groups):
        found = enumerate_hom_groups(SearchConfig(8, include_groups, 8))
        digest = hashlib.sha256(repr(_table_twist_pairs(found)).encode()).hexdigest()
        assert digest == ORDER_8_DIGESTS[include_groups]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_table_per_orbit_of_the_automorphisms(self, n):
        for R in _groups(n, ClassifyStats()):
            autos = automorphisms_of(R)
            tables = [table for _, _, table in _relabelings(R, autos)]
            assert len(tables) == len(set(tables)) == factorial(n - 1) // len(autos)

    @pytest.mark.parametrize(
        "kind, k", [("zn", k) for k in range(1, 7)] + [("dn", k) for k in range(1, 4)]
    )
    def test_walk_takes_the_least_ordering_of_each_orbit(self, twists_of, kind, k):
        rng = random.Random(k)
        for T in twists_of(kind, k):
            n = T.n
            # T as built, and relabeled so that its unit 0 moves to n-1
            for G in (T, relabel(T, (n - 1, *rng.sample(range(n - 1), n - 1)))):
                self._check_walk(G)

    @staticmethod
    def _check_walk(G):
        # The orbits of the orderings under Aut G, by brute force over all
        # orderings and over the bijections that keep the table, the unit
        # and the twist.  A twisted table alone may have more.
        n, t, alpha = G.n, G.table.entries, G.alpha.images
        autos = [
            a for a in automorphisms_by_filter(t)
            if a[G.unit] == G.unit and all(a[alpha[x]] == alpha[a[x]] for x in range(n))
        ]
        least = set()
        for rest in permutations([x for x in range(n) if x != G.unit]):
            o = (G.unit, *rest)
            least.add(min(tuple(a[x] for x in o) for a in autos))
        walked = list(_relabelings(G, automorphisms_of(G)))
        assert [o for _, o, _ in walked] == sorted(least)
        assert len(walked) == factorial(n - 1) // len(autos)
        for p, o, table in walked:
            assert all(p[o[k]] == k for k in range(n))
            assert table == tuple(tuple(p[t[i][j]] for j in o) for i in o)

    def test_structures_share_equal_rows(self):
        found = enumerate_hom_groups(SearchConfig(6, include_groups=True))
        rows = [row for G in found for row in G.table.entries]
        assert len({id(row) for row in rows}) == len(set(rows))
        # No twist is stored: each is read off its structure's unit row.
        assert all(G.alpha.images is G.table.entries[G.unit] for G in found)


class TestIsomorphism:
    def test_stock_table_isomorphic_to_twisted_z3(self, z3a):
        other = twist(cyclic_group(3), (0, 2, 1))
        f = are_isomorphic(z3a, other)
        _witness_ok(z3a, other, f)

    def test_self_isomorphism_is_identity(self, stock_fixture):
        # are_isomorphic promises an isomorphism, not which one: from G to
        # itself that is some automorphism, and the identity is among them.
        f = are_isomorphic(stock_fixture, stock_fixture)
        _witness_ok(stock_fixture, stock_fixture, f)
        assert Permutation.identity(stock_fixture.n) in automorphisms_of(stock_fixture)

    def test_symmetric_with_inverse_witness(self, z6a):
        p = Permutation((0, 3, 1, 4, 2, 5))
        other = relabel(z6a, p)
        f = are_isomorphic(z6a, other)
        _witness_ok(z6a, other, f)
        g = are_isomorphic(other, z6a)
        _witness_ok(other, z6a, g)

    def test_abelian_never_matches_nonabelian(self, z6a, d3a):
        assert are_isomorphic(z6a, d3a) is None
        assert are_isomorphic(d3a, z6a) is None

    def test_size_mismatch(self, z3a, z5a):
        assert are_isomorphic(z3a, z5a) is None

    def test_distinct_twists_of_z5_are_not_isomorphic(self):
        z5 = cyclic_group(5)
        doubled = twist(z5, (0, 2, 4, 1, 3))
        negated = twist(z5, (0, 4, 3, 2, 1))
        assert are_isomorphic(doubled, negated) is None

    def test_consistent_with_canonical_form(self):
        structures = enumerate_hom_groups(SearchConfig(order=4, include_groups=True))
        for G in structures:
            for H in structures:
                same_canon = canonical_form(G).table == canonical_form(H).table
                assert same_canon == (are_isomorphic(G, H) is not None)


def _twisted_structures():
    stock = [fixture(name) for name in ("z3a", "z6a", "d3a", "z5a")]
    groups = (cyclic_group(6), dihedral_group(3), dihedral_group(4))
    return stock + [twist(G, a) for G in groups for a in automorphisms_by_filter(G)]


# Groups with closed-form automorphism lists, n <= 16, for random twists.
_FACTORS = [(cyclic_group(k), cyclic_automorphisms_by_formula(k)) for k in range(1, 17)] + [
    (dihedral_group(k), dihedral_automorphisms_by_formula(k)) for k in range(3, 9)
]


@st.composite
def _twisted_up_to_16(draw):
    """A random twist of Z_k or D_k, or of a product of two, with n <= 16."""
    G, autos = draw(st.sampled_from(_FACTORS))
    T = twist(G, draw(st.sampled_from(autos)))
    fits = [(H, a) for H, a in _FACTORS if G.n * H.n <= 16]
    if draw(st.booleans()):
        H, autos = draw(st.sampled_from(fits))
        T = direct_product(T, twist(H, draw(st.sampled_from(autos))))
    return T


class TestOneSearch:
    """are_isomorphic and automorphisms_of run one generator-image search;
    both are checked against brute force over bijections."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_are_isomorphic_is_the_least_isomorphism(self, n):
        # are_isomorphic promises an isomorphism, not the least one: its
        # map must be one the filter finds, and None exactly when none is.
        structures = enumerate_hom_groups(SearchConfig(order=n, include_groups=True))
        # A relabeled copy of each moves the unit off 0 for n > 1.
        shift = tuple((i + 1) % n for i in range(n))
        structures += [relabel(G, shift) for G in structures]
        for G in structures:
            for H in structures:
                found = isomorphisms_by_filter(
                    (G.table.entries, G.alpha.images, G.unit),
                    (H.table.entries, H.alpha.images, H.unit),
                )
                f = are_isomorphic(G, H)
                assert (f.images in found) if found else f is None

    @settings(max_examples=80, deadline=None)
    @given(_twisted_up_to_16(), st.randoms(use_true_random=False))
    def test_relabeled_twists_are_isomorphic(self, G, rng):
        H = relabel(G, rng.sample(range(G.n), G.n))
        _witness_ok(G, H, are_isomorphic(G, H))

    def test_equal_key_multisets_not_isomorphic(self):
        # x -> 2x and x -> 3x on Z5: every non-unit key is (4, 5) in both,
        # but 2 and 3 = 2^-1 are not conjugate in the abelian Aut(Z5).
        z5 = cyclic_group(5)
        doubled, tripled = twist(z5, (0, 2, 4, 1, 3)), twist(z5, (0, 3, 1, 4, 2))
        assert _profile(doubled)[2] == _profile(tripled)[2]
        triple = lambda G: (G.table.entries, G.alpha.images, G.unit)
        assert isomorphisms_by_filter(triple(doubled), triple(tripled)) == []
        assert are_isomorphic(doubled, tripled) is None

    @pytest.mark.parametrize("T", _twisted_structures())
    def test_automorphisms_of_a_twist_commute_with_it(self, T):
        # Untwist: g.h = alpha^-1(g*h) is the group that T twists.
        n, t, a = T.n, T.table.entries, T.alpha.images
        a_inv = T.alpha.inverse().images
        untwisted = tuple(tuple(a_inv[t[g][h]] for h in range(n)) for g in range(n))
        expected = [
            f for f in automorphisms_by_filter(untwisted)
            if all(f[a[g]] == a[f[g]] for g in range(n))
        ]
        assert [p.images for p in automorphisms_of(T)] == expected


class TestCanonicalForm:
    def test_idempotent(self, stock_fixture):
        c = canonical_form(stock_fixture)
        assert canonical_form(c).table == c.table

    def test_twisted_cyclic_is_the_same_class(self, z3a):
        other = twist(cyclic_group(3), (0, 2, 1))
        assert canonical_form(z3a).table == canonical_form(other).table

    def test_unit_normalized_to_zero(self, z3a):
        moved = relabel(z3a, (1, 0, 2))
        assert moved.unit == 1
        c = canonical_form(moved)
        assert c.unit == 0
        assert c.table == canonical_form(z3a).table

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(1, 6))))
    def test_relabeling_invariance_z6a(self, rest):
        z6a = fixture("z6a")
        p = Permutation((0,) + tuple(rest))
        assert canonical_form(relabel(z6a, p)).table == canonical_form(z6a).table

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(1, 6))))
    def test_relabeled_structures_stay_isomorphic_d3a(self, rest):
        d3a = fixture("d3a")
        p = Permutation((0,) + tuple(rest))
        moved = relabel(d3a, p)
        f = are_isomorphic(d3a, moved)
        _witness_ok(d3a, moved, f)


class TestRelabel:
    def test_transport_formula(self, z3a):
        p = Permutation((0, 2, 1))
        moved = relabel(z3a, p)
        for i in range(3):
            for j in range(3):
                assert moved.table.entries[p(i)][p(j)] == p(z3a.table.entries[i][j])

    def test_labels_follow(self, z3a):
        moved = relabel(z3a, (0, 2, 1))
        assert moved.labels == ("1", "b", "a")

    def test_unit_moves(self, z3a):
        moved = relabel(z3a, (2, 0, 1))
        assert moved.unit == 2

    def test_length_mismatch(self, z3a):
        with pytest.raises(ValueError):
            relabel(z3a, (0, 1))


class TestClassifyOrder:
    def test_order_three_counts(self):
        report = classify_order(3)
        assert (report.raw_count, report.class_count) == (1, 1)
        assert len(report.representatives) == 1

    def test_order_one_trivial_group_only_with_groups(self):
        assert classify_order(1).raw_count == 0
        report = classify_order(1, include_groups=True)
        assert (report.raw_count, report.class_count) == (1, 1)

    def test_snapshot_counts(self):
        # pinned from the Latin-square filter oracle
        assert (classify_order(4).raw_count, classify_order(4).class_count) == (8, 3)
        got = classify_order(4, include_groups=True)
        assert (got.raw_count, got.class_count) == (12, 5)
        assert (classify_order(5).raw_count, classify_order(5).class_count) == (18, 3)
        got = classify_order(5, include_groups=True)
        assert (got.raw_count, got.class_count) == (24, 4)

    def test_representatives_are_canonical(self):
        report = classify_order(4, include_groups=True)
        for G in report.representatives:
            assert canonical_form(G).table == G.table

    def test_guard_passthrough(self):
        with pytest.raises(OrderGuardError):
            classify_order(7)

    @pytest.mark.parametrize("n", [60, 120])
    def test_groups_past_the_solvable_bound_are_refused(self, n):
        # A5 has order 60 and no normal subgroup of prime index.
        with pytest.raises(ValueError, match="below order 60"):
            classify_order(n, max_order_guard=n)

    def test_reduce_to_classes_drops_duplicates(self, z6a):
        moved = relabel(z6a, (0, 3, 1, 4, 2, 5))
        assert len(reduce_to_classes([z6a, moved])) == 1


class TestReduceAgainstLexMinOracle:
    """reduce_to_classes against an independent lex-min relabeling loop."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_labeled_structures(self, n):
        structures = enumerate_hom_groups(SearchConfig(order=n, include_groups=True))
        expected = lexmin_classes([(G.table.entries, G.unit) for G in structures])
        rng = random.Random(n)

        shuffled = list(structures)
        rng.shuffle(shuffled)
        relabeled = [relabel(G, rng.sample(range(n), n)) for G in structures]
        for inputs in (structures, shuffled, relabeled):
            classes = reduce_to_classes(inputs)
            assert [G.table.entries for G in classes] == expected
            assert all(G.unit == 0 and G.alpha.images == G.table.entries[0] for G in classes)


def _bucket_key(G):
    """The key multiset that reduce_to_classes buckets by."""
    return _profile(G)[2]


class TestInvariant:
    """The bucket key of reduce_to_classes must not split a class."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relabeling_keeps_the_invariant(self, n):
        rng = random.Random(100 + n)
        for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
            for _ in range(3):
                assert _bucket_key(relabel(G, rng.sample(range(n), n))) == _bucket_key(G)

    @pytest.mark.parametrize("group", [cyclic_group(8), dihedral_group(4)], ids=["zn:8", "dn:4"])
    def test_relabeled_order_eight_twists(self, group):
        rng = random.Random(8)
        for alpha in automorphisms_of(group):
            G = twist(group, alpha)
            assert _bucket_key(relabel(G, rng.sample(range(8), 8))) == _bucket_key(G)


class TestCountsPastOrderSix:
    """Counts at orders 4, 6, 7 and 8, pinned against the (group,
    automorphism) oracle, which lists the groups by formula and counts by
    orbit-stabilizer and conjugacy classes of automorphisms."""

    @pytest.mark.parametrize(
        "n, include_groups, counts",
        [
            (7, True, (720, 6)),
            (7, False, (600, 5)),
            (8, True, (25200, 25)),
            (8, False, (22440, 20)),
            (4, True, (12, 5)),
            (4, False, (8, 3)),
            (6, True, (240, 5)),
            (6, False, (160, 3)),
        ],
    )
    def test_classify_order_matches_oracle(self, n, include_groups, counts):
        assert hom_group_counts_by_automorphisms(n)[include_groups] == counts
        report = classify_order(n, include_groups=include_groups, max_order_guard=n)
        assert (report.raw_count, report.class_count) == counts
        # The labeled count is a formula; the listing gives it a second route.
        labeled = enumerate_hom_groups(SearchConfig(n, include_groups, n))
        assert len(labeled) == report.raw_count


# OEIS A000001: the number of groups of order n, for n = 1..16.
GROUP_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14)


class TestGroupsByExtension:
    """classify_order builds one group per isomorphism class by cyclic
    extension and reads the classes off conjugacy classes of automorphisms."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_one_group_per_isomorphism_class(self, n):
        groups = _groups(n, ClassifyStats())
        assert len(groups) == GROUP_COUNTS[n - 1]
        for i, G in enumerate(groups):
            assert G.n == n and G.unit == 0 and G.alpha.is_identity
            assert all(are_isomorphic(G, H) is None for H in groups[i + 1 :])

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("include_groups", [False, True])
    def test_classes_match_the_lexmin_oracle(self, n, include_groups):
        structures = enumerate_hom_groups(SearchConfig(n, include_groups))
        expected = lexmin_classes([(G.table.entries, G.unit) for G in structures])
        report = classify_order(n, include_groups)
        assert [G.table.entries for G in report.representatives] == expected

    @pytest.mark.parametrize("include_groups", [False, True])
    def test_order_eight_digest(self, include_groups):
        report = classify_order(8, include_groups, max_order_guard=8)
        digest = hashlib.sha256(repr(_table_twist_pairs(report.representatives)).encode())
        assert digest.hexdigest() == ORDER_8_CLASS_DIGESTS[include_groups]

    def test_classes_match_the_reduction_at_order_seven(self):
        report = classify_order(7, include_groups=True, max_order_guard=7)
        structures = enumerate_hom_groups(SearchConfig(7, True, 7))
        assert list(report.representatives) == reduce_to_classes(structures)
