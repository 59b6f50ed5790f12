import pytest

from homgroups import (
    FiniteGroup,
    HomGroup,
    NotAutomorphismError,
    Permutation,
    automorphisms_of,
    cyclic_group,
    dihedral_group,
    direct_product,
    fixture,
    inner_automorphism,
    is_abelian,
    is_automorphism,
    twist,
    verify,
)
from oracles import automorphisms_by_filter


class TestGroups:
    def test_cyclic(self):
        z4 = cyclic_group(4)
        assert z4.mul(3, 2) == 1
        assert z4.inv(1) == 3
        assert z4.unit == 0

    def test_cyclic_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclic_group(0)

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
        # HomGroup construction re-verifies, so this sweep is the property
        for G in (cyclic_group(4), cyclic_group(8), dihedral_group(3), dihedral_group(4)):
            for a in automorphisms_of(G):
                twist(G, a)


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
        P = direct_product(z3a, z6a)
        for i in range(3):
            for j in range(6):
                for i2 in range(3):
                    for j2 in range(6):
                        got = P.table.entries[i * 6 + j][i2 * 6 + j2]
                        want = z3a.table.entries[i][i2] * 6 + z6a.table.entries[j][j2]
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
        z6 = fixture("group:zn(6)")
        assert isinstance(z6, FiniteGroup) and z6.n == 6
        d3 = fixture("group:dn(3)")
        assert isinstance(d3, FiniteGroup) and d3.n == 6

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("z7a")
