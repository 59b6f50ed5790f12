import pytest

from homgroups import core
from homgroups import (
    FiniteGroup,
    HomGroup,
    InvalidStructureError,
    NotAutomorphismError,
    Permutation,
    SearchConfig,
    automorphisms_of,
    canonical_form,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_hom_groups,
    fixture,
    inner_automorphism,
    is_abelian,
    is_automorphism,
    relabel,
    twist,
    verify,
)
from homgroups.classify import ClassifyStats, _extensions, _groups
from oracles import (
    automorphisms_by_filter,
    cyclic_automorphisms_by_formula,
    dihedral_automorphisms_by_formula,
)


class TestGroups:
    def test_cyclic(self):
        z4 = cyclic_group(4)
        assert z4.mul(3, 2) == 1
        assert z4.inv(1) == 3
        assert z4.unit == 0

    def test_cyclic_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclic_group(0)

    @pytest.mark.parametrize("build", [cyclic_group, dihedral_group])
    @pytest.mark.parametrize("order", [True, 2.0, "2"])
    def test_rejects_order_that_is_not_an_int(self, build, order):
        with pytest.raises(ValueError, match="integer >= 1"):
            build(order)

    def test_dihedral_relations(self):
        d4 = dihedral_group(4)
        r, s = 1, 4
        assert d4.mul(s, s) == 0
        rk = 0
        for _ in range(4):
            rk = d4.mul(rk, r)
        assert rk == 0
        # s r s^-1 = r^-1
        assert d4.mul(d4.mul(s, r), d4.inv(s)) == d4.inv(r)

    def test_dihedral_labels(self):
        assert dihedral_group(3).labels == ("1", "r", "r^2", "s", "rs", "r^2s")


def _dihedral_by_pairs(k):
    """D_k with r^i s^e at index i + k*e, multiplied as pairs: s r = r^-1 s."""

    def prod(a, b):
        (e, i), (f, j) = divmod(a, k), divmod(b, k)
        return (i + (-1) ** e * j) % k + k * ((e + f) % 2)

    return tuple(tuple(prod(a, b) for b in range(2 * k)) for a in range(2 * k))


class TestBuiltWithoutVerify:
    """The stock groups, direct products, relabelings and cyclic extensions
    are built from closed forms, with no verify; each must equal what the
    public constructor builds from the same table, and the inverses read
    off its table must be two-sided."""

    @staticmethod
    def assert_as_constructed(G):
        if isinstance(G, FiniteGroup):
            H = FiniteGroup(G.table.entries, G.unit, G.labels)
        else:
            H = HomGroup(G.table.entries, G.alpha, G.unit, G.labels)
        assert type(H) is type(G) and H == G
        t = G.table.entries
        for g, x in enumerate(G.inverses):
            assert t[g][x] == t[x][g] == G.unit

    @pytest.mark.parametrize("k", range(1, 41))
    def test_stock_groups(self, k):
        Z, D = cyclic_group(k), dihedral_group(k)
        assert Z.table.entries == tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
        assert D.table.entries == _dihedral_by_pairs(k)
        for G in (Z, D):
            self.assert_as_constructed(G)

    def test_direct_products(self, z3a):
        stock = [build(k) for k in range(1, 6) for build in (cyclic_group, dihedral_group)]
        for G in stock + [z3a]:
            for H in stock + [z3a, relabel(z3a, (2, 0, 1))]:
                self.assert_as_constructed(direct_product(G, H))

    def test_cyclic_extensions(self, monkeypatch):
        # Every extension of order m*p <= 24, all that _groups(24) builds among them.
        stats = ClassifyStats()
        bases = [
            (N, p)
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
            for m in range(1, 24 // p + 1)
            for N in _groups(m, stats)
        ]
        calls = []
        monkeypatch.setattr(core, "verify", lambda *args: calls.append(args))
        built = [G for N, p in bases for G in _extensions(N, p)]
        monkeypatch.undo()
        assert calls == [] and len(built) == 708
        for G in built:
            assert verify(G.table, Permutation.identity(G.n), 0).valid
            self.assert_as_constructed(G)

    def test_relabelings_and_canonical_forms(self, twists_of):
        for G in (*twists_of("zn", 8), *twists_of("dn", 4), fixture("d3a")):
            moved = relabel(G, [(i + 1) % G.n for i in range(G.n)])  # the unit moves to 1
            for H in (moved, canonical_form(moved)):
                self.assert_as_constructed(H)


class TestTwist:
    def test_negation_twist_of_z6_is_the_stock_table(self, z6a):
        built = twist(cyclic_group(6), (0, 5, 4, 3, 2, 1))
        assert built.table == z6a.table
        assert built.alpha == z6a.alpha
        assert built.table.entries[1][1] == 4

    def test_doubling_twist_of_z5_is_the_stock_table(self, z5a):
        built = twist(cyclic_group(5), (0, 2, 4, 1, 3))
        assert built.table == z5a.table
        assert built.table.entries[1][1] == 4

    def test_conjugation_twist_of_d3_is_the_stock_table(self, d3a):
        d3 = dihedral_group(3)
        built = twist(d3, inner_automorphism(d3, 3))
        assert built.table == d3a.table
        assert built.alpha == d3a.alpha

    def test_identity_twist_recovers_the_group(self):
        z6 = cyclic_group(6)
        G = twist(z6, Permutation.identity(6))
        assert G.table == z6.table and G.alpha.is_identity

    def test_non_automorphism_rejected_with_witness(self):
        with pytest.raises(NotAutomorphismError) as exc:
            twist(cyclic_group(6), (0, 2, 1, 3, 4, 5))
        g, k = exc.value.witness
        f = (0, 2, 1, 3, 4, 5)
        z6 = cyclic_group(6)
        assert f[z6.mul(g, k)] != z6.mul(f[g], f[k])

    def test_twist_inverse_equals_group_inverse(self):
        for k in range(2, 9):
            z = cyclic_group(k)
            for a in automorphisms_of(z):
                assert twist(z, a).inverses == z.inverses
        d3 = dihedral_group(3)
        for a in automorphisms_of(d3):
            assert twist(d3, a).inverses == d3.inverses

    def test_every_automorphism_twists_cleanly(self):
        # twist builds its result without verify, so the sweep checks the
        # table by verify and the rest against the checked constructor
        # Every group table of orders 1-6 with unit 0: the identity twists.
        groups = [
            FiniteGroup(G.table)
            for n in range(1, 7)
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True))
            if G.alpha.is_identity
        ]
        for k in range(1, 17):
            groups += [cyclic_group(k), dihedral_group(k)]
        z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
        groups += [direct_product(z2, z4), direct_product(z4, z4)]
        groups.append(direct_product(z3, dihedral_group(3)))
        for G in groups:
            for a in automorphisms_of(G):
                built = twist(G, a)
                assert verify(built.table, a, G.unit).valid
                checked = HomGroup(built.table, a, G.unit, G.labels)
                assert built.table == checked.table
                assert built.alpha == checked.alpha == a
                assert built.unit == checked.unit
                assert built.labels == checked.labels
                assert built.inverses == checked.inverses

    @pytest.mark.parametrize("name", ["z3a", "d3a"])
    def test_twisting_a_twisted_structure_is_rejected_as_constructed(self, name):
        G = fixture(name)
        for a in automorphisms_of(G):
            table = [[a(v) for v in row] for row in G.table.entries]
            with pytest.raises(InvalidStructureError) as expected:
                HomGroup(table, a, G.unit, G.labels)
            with pytest.raises(InvalidStructureError) as got:
                twist(G, a)
            assert got.value.report == expected.value.report
            assert str(got.value) == str(expected.value)


class TestClosedForms:
    def test_z3a(self, z3a):
        assert all(
            z3a.table.entries[i][j] == (-(i + j)) % 3 for i in range(3) for j in range(3)
        )

    def test_z6a(self, z6a):
        assert all(
            z6a.table.entries[i][j] == (-(i + j)) % 6 for i in range(6) for j in range(6)
        )

    def test_z5a(self, z5a):
        assert all(
            z5a.table.entries[i][j] == (2 * (i + j)) % 5 for i in range(5) for j in range(5)
        )

    def test_d3a_matches_generator(self, d3a):
        # independent generator: dihedral product in (rotation, flip) form,
        # conjugated by s
        def dmul(a, b):
            i, e = a % 3, a // 3
            j, f = b % 3, b // 3
            return ((i - j) % 3 if e else (i + j) % 3) + 3 * (e ^ f)

        def conj_s(x):
            return dmul(dmul(3, x), 3)

        assert all(
            d3a.table.entries[i][j] == conj_s(dmul(i, j)) for i in range(6) for j in range(6)
        )


class TestIsAutomorphism:
    def test_negation_on_z6(self):
        assert is_automorphism(cyclic_group(6), (0, 5, 4, 3, 2, 1))

    def test_transposition_is_not(self):
        assert not is_automorphism(cyclic_group(6), (0, 2, 1, 3, 4, 5))

    def test_identity(self):
        for G in (cyclic_group(5), dihedral_group(4)):
            assert is_automorphism(G, Permutation.identity(G.n))

    def test_length_mismatch(self):
        assert not is_automorphism(cyclic_group(6), (0, 1, 2))
        with pytest.raises(ValueError, match="twist length 3 != carrier size 6"):
            twist(cyclic_group(6), (0, 1, 2))


class TestAutomorphismEnumeration:
    def test_z6_exactly_identity_and_negation(self):
        autos = automorphisms_of(cyclic_group(6))
        assert [p.images for p in autos] == [(0, 1, 2, 3, 4, 5), (0, 5, 4, 3, 2, 1)]

    def test_z5_has_four(self):
        assert len(automorphisms_of(cyclic_group(5))) == 4

    def test_trivial_group(self):
        assert [p.images for p in automorphisms_of(cyclic_group(1))] == [(0,)]

    @pytest.mark.parametrize("builder,arg", [
        (cyclic_group, 4), (cyclic_group, 6), (cyclic_group, 7),
        (dihedral_group, 3), (dihedral_group, 4),
    ])
    def test_matches_exhaustive_filter(self, builder, arg):
        G = builder(arg)
        assert [p.images for p in automorphisms_of(G)] == automorphisms_by_filter(G)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_cyclic_matches_the_unit_formula(self, k):
        autos = automorphisms_of(cyclic_group(k))
        assert [p.images for p in autos] == cyclic_automorphisms_by_formula(k)

    @pytest.mark.parametrize("k", range(1, 33))
    def test_dihedral_matches_the_closed_formula(self, k):
        # D_1 = Z2 and D_2 = Z2^2 are abelian, outside the formula's family.
        expected = (
            automorphisms_by_filter(dihedral_group(k)) if k <= 2
            else dihedral_automorphisms_by_formula(k)
        )
        assert [p.images for p in automorphisms_of(dihedral_group(k))] == expected

    def test_all_outputs_are_automorphisms(self):
        d4 = dihedral_group(4)
        for p in automorphisms_of(d4):
            assert is_automorphism(d4, p)


class TestInnerAutomorphism:
    def test_conjugation_by_s_in_d3(self):
        assert inner_automorphism(dihedral_group(3), 3).images == (0, 2, 1, 3, 5, 4)

    def test_conjugation_by_unit(self):
        assert inner_automorphism(dihedral_group(4), 0).is_identity

    def test_conjugation_by_r_is_an_automorphism(self):
        d3 = dihedral_group(3)
        assert is_automorphism(d3, inner_automorphism(d3, 1))

    def test_bounds(self):
        with pytest.raises(ValueError):
            inner_automorphism(dihedral_group(3), 6)

    @pytest.mark.parametrize("bad", [True, False, 1.0])
    def test_element_must_be_an_int(self, bad):
        with pytest.raises(ValueError):
            inner_automorphism(dihedral_group(3), bad)


class TestDirectProduct:
    def test_order_nine_product_verifies(self, z3a):
        P = direct_product(z3a, z3a)
        assert P.n == 9
        assert verify(P.table, P.alpha, P.unit).valid

    def test_product_with_trivial_is_identity_map(self, z3a):
        trivial = HomGroup(((0,),), (0,), 0)
        P = direct_product(z3a, trivial)
        assert P.table == z3a.table and P.alpha == z3a.alpha

    def test_abelian_factors_give_abelian_product(self, z3a, z6a):
        assert is_abelian(direct_product(z3a, z6a))

    def test_pair_encoding_row_major(self, z3a, z6a):
        # The second factor has its unit at 3, so the product's unit is
        # off 0 and does not sit at the first pair.
        moved = relabel(z6a, (3, 1, 2, 0, 4, 5))
        assert moved.unit == 3
        for H in (z6a, moved):
            P = direct_product(z3a, H)
            assert P.unit == z3a.unit * 6 + H.unit
            for i in range(3):
                for j in range(6):
                    assert P.alpha(i * 6 + j) == z3a.alpha(i) * 6 + H.alpha(j)
                    for i2 in range(3):
                        for j2 in range(6):
                            got = P.table.entries[i * 6 + j][i2 * 6 + j2]
                            want = z3a.table.entries[i][i2] * 6 + H.table.entries[j][j2]
                            assert got == want

    def test_labels_combined(self, z3a):
        P = direct_product(z3a, z3a)
        assert P.labels[0] == "(1,1)" and P.labels[5] == "(a,b)"


class TestFixtures:
    def test_z3a_exact_data(self, z3a):
        assert z3a.table.entries == ((0, 2, 1), (2, 1, 0), (1, 0, 2))
        assert z3a.alpha.images == (0, 2, 1)
        assert z3a.labels == ("1", "a", "b")

    def test_d3a_first_row(self, d3a):
        # unit row: 1, r^2, r, s, sr, rs in the stock label order
        row = [d3a.labels[v] for v in d3a.table.entries[0]]
        assert row == ["1", "r^2", "r", "s", "sr", "rs"]

    def test_z5a_row_one(self, z5a):
        assert z5a.table.entries[1] == (2, 4, 1, 3, 0)

    def test_group_fixtures(self):
        # plain groups come from cyclic_group and dihedral_group, not by name
        for name in ("group:zn(6)", "group:dn(3)"):
            with pytest.raises(ValueError, match="unknown fixture name"):
                fixture(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("z7a")
