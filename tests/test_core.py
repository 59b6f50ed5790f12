import pytest
from hypothesis import given, strategies as st

from homgroups import (
    CayleyTable,
    FiniteGroup,
    HomGroup,
    InvalidStructureError,
    Permutation,
    SearchConfig,
    alpha_apply,
    cyclic_group,
    enumerate_hom_groups,
    fixture,
    inverse_of,
    is_abelian,
    left_divide,
    left_power,
    mul,
    power_orbit,
    right_divide,
    right_power,
    twist,
    verify,
)
from oracles import left_divide_scan, right_divide_scan

perm_images = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(n)))
)


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.is_identity
        assert [p(i) for i in range(4)] == [0, 1, 2, 3]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation(())

    @pytest.mark.parametrize("images", [(0, 1.0), (0, True), (False, 1), (0, "1")])
    def test_rejects_non_int_images(self, images):
        # each of these compares equal to (0, 1) after sorting
        with pytest.raises(ValueError):
            Permutation(images)

    @given(perm_images)
    def test_inverse_roundtrip(self, images):
        p = Permutation(tuple(images))
        assert p.compose(p.inverse()).is_identity
        assert p.inverse().compose(p).is_identity

    @given(perm_images, st.integers(min_value=-6, max_value=6))
    def test_apply_matches_power(self, images, k):
        p = Permutation(tuple(images))
        q = p.power(k)
        assert all(p.apply(i, k) == q(i) for i in range(len(p)))

    def test_cycles(self):
        p = Permutation((0, 2, 1, 4, 5, 3))
        assert p.cycles() == ((0,), (1, 2), (3, 4, 5))
        assert p.cycle_type() == (1, 2, 3)


class TestCayleyTable:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CayleyTable(())

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            CayleyTable(((0, 1), (1,)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CayleyTable(((0, 2), (1, 0)))

    @pytest.mark.parametrize("bad", [True, False, 1.0])
    def test_rejects_non_int_entries(self, bad):
        with pytest.raises(ValueError):
            CayleyTable(((0, 1), (1, bad)))

    def test_symmetry(self, z6a, d3a):
        assert z6a.table.is_symmetric()
        assert not d3a.table.is_symmetric()


class TestVerify:
    def test_fixtures_valid(self, stock_fixture):
        report = verify(stock_fixture.table, stock_fixture.alpha, stock_fixture.unit)
        assert report.valid
        assert report.violations == ()

    def test_group_with_identity_twist_valid(self):
        z6 = cyclic_group(6)
        assert verify(z6.table, Permutation.identity(6), 0).valid

    def test_swapped_cells_flag_affected_column(self, z6a):
        rows = [list(r) for r in z6a.table.entries]
        rows[2][3], rows[2][4] = rows[2][4], rows[2][3]
        report = verify(rows, z6a.alpha, 0)
        assert not report.valid
        tags = dict(report.violations)
        assert tags["latin-col"] == (3, 2, 3)

    def test_unit_not_fixed(self):
        # unit row forced to alpha, so alpha(0) != 0 also breaks unit-fixed
        report = verify(((1, 0), (0, 1)), (1, 0), 0)
        assert "unit-fixed" in report.tags()

    def test_unit_row_mismatch(self, z6a):
        report = verify(z6a.table, Permutation.identity(6), 0)
        assert not report.valid
        assert "unit-row" in report.tags()
        assert "unit-col" in report.tags()

    def test_inverse_missing_on_non_latin_table(self):
        report = verify(((0, 1), (1, 1)), (0, 1), 0)
        assert ("latin-row", (1, 0, 1)) in report.violations
        assert ("inverse-missing", (1,)) in report.violations

    def test_nonassociative_loop_flagged(self):
        # order-5 loop that is not a group; twist = identity row
        loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1),
                (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))
        report = verify(loop, loop[0], 0)
        assert report.violations == (
            ("hom-associativity", (1, 1, 2)),
            ("inverse-asymmetric", (2, 3)),
        )

    def test_precondition_errors(self, z3a):
        with pytest.raises(ValueError):
            verify(z3a.table, (0, 1), 0)
        with pytest.raises(ValueError):
            verify(z3a.table, z3a.alpha, 5)

    @pytest.mark.parametrize("unit", [False, True, 0.0])
    def test_unit_must_be_an_int(self, z3a, unit):
        with pytest.raises(ValueError):
            verify(z3a.table, z3a.alpha, unit)
        with pytest.raises(ValueError):
            HomGroup(z3a.table, z3a.alpha, unit)
        with pytest.raises(ValueError):
            FiniteGroup(((0, 1), (1, 0)), unit)


class TestConstruction:
    def test_rejected_structure_carries_report(self):
        with pytest.raises(InvalidStructureError) as exc:
            HomGroup(((1, 0), (0, 1)), (1, 0), 0)
        assert "unit-fixed" in exc.value.report.tags()

    def test_trivial_hom_group(self):
        g = HomGroup(((0,),), (0,), 0)
        assert g.n == 1 and g.inverses == (0,)

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValueError):
            HomGroup((), (), 0)

    def test_label_length_checked(self, z3a):
        with pytest.raises(ValueError):
            HomGroup(z3a.table, z3a.alpha, 0, labels=("1", "a"))

    def test_equality_and_hash(self, z3a):
        again = fixture("z3a")
        assert again == z3a and hash(again) == hash(z3a)
        assert HomGroup(z3a.table, z3a.alpha, 0) != z3a  # labels differ

    def test_finite_group_rejects_nonassociative(self):
        loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1),
                (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(loop, 0)

    def test_finite_group_rejects_bad_unit(self):
        with pytest.raises(ValueError, match="unit law"):
            FiniteGroup(((0, 1), (1, 0)), 1)


class TestMul:
    def test_known_products(self, z3a, z6a):
        assert mul(z3a, 1, 1) == 1  # a*a = a
        assert mul(z6a, 1, 1) == 4

    def test_unit_idempotent(self, stock_fixture):
        u = stock_fixture.unit
        assert mul(stock_fixture, u, u) == u

    def test_bounds(self, z3a):
        with pytest.raises(ValueError):
            mul(z3a, 0, 3)

    @pytest.mark.parametrize("bad", [True, False, 1.0])
    def test_index_must_be_an_int(self, z3a, bad):
        # True would otherwise read row 1, and 1.0 fail with a TypeError
        for call in (
            lambda: mul(z3a, bad, 1),
            lambda: mul(z3a, 0, bad),
            lambda: alpha_apply(z3a, bad, 1),
            lambda: inverse_of(z3a, bad),
            lambda: left_divide(z3a, bad, 0),
            lambda: right_divide(z3a, 0, bad),
            lambda: right_power(z3a, bad, 2),
            lambda: left_power(z3a, bad, 2),
            lambda: power_orbit(z3a, bad),
        ):
            with pytest.raises(ValueError):
                call()


class TestAlphaApply:
    def test_known_value(self, z6a):
        assert alpha_apply(z6a, 1, 1) == 5

    def test_involution_inverse(self, z6a):
        assert alpha_apply(z6a, 1, -1) == 5

    def test_unit_fixed_all_exponents(self, stock_fixture):
        u = stock_fixture.unit
        assert all(alpha_apply(stock_fixture, u, k) == u for k in range(-4, 5))

    def test_matches_permutation_power(self, z5a):
        for k in range(-5, 6):
            pk = z5a.alpha.power(k)
            assert all(alpha_apply(z5a, a, k) == pk(a) for a in range(5))


class TestInverse:
    def test_known_value(self, z3a):
        assert inverse_of(z3a, 1) == 2

    def test_scan_agreement(self, stock_fixture):
        t = stock_fixture.table.entries
        for a in range(stock_fixture.n):
            assert t[a][inverse_of(stock_fixture, a)] == stock_fixture.unit

    def test_z6a_self_inverse(self, z6a):
        assert inverse_of(z6a, 3) == 3

    def test_unit(self, stock_fixture):
        assert inverse_of(stock_fixture, stock_fixture.unit) == stock_fixture.unit


def _all_structures_up_to(order, include_groups=True):
    out = []
    for n in range(1, order + 1):
        out.extend(enumerate_hom_groups(SearchConfig(order=n, include_groups=include_groups)))
    return out


class TestDivision:
    def test_spec_examples(self, z3a, z6a):
        assert left_divide(z3a, 1, 2) == 0
        assert left_divide(z6a, 1, 0) == 5
        assert right_divide(z3a, 1, 2) == 0
        assert right_divide(z6a, 2, 0) == 4

    def test_formula_agrees_with_scan(self, stock_fixture):
        t = stock_fixture.table.entries
        for a in range(stock_fixture.n):
            for b in range(stock_fixture.n):
                assert left_divide(stock_fixture, a, b) == left_divide_scan(t, a, b)
                assert right_divide(stock_fixture, a, b) == right_divide_scan(t, a, b)

    def test_division_coherence(self, stock_fixture):
        G = stock_fixture
        for a in range(G.n):
            for b in range(G.n):
                assert mul(G, a, left_divide(G, a, b)) == b
                assert mul(G, right_divide(G, a, b), a) == b

    def test_unit_left_division(self, stock_fixture):
        G = stock_fixture
        for b in range(G.n):
            x = left_divide(G, G.unit, b)
            assert x == alpha_apply(G, b, -1)
            assert mul(G, G.unit, x) == b

    def test_abelian_sides_agree(self, z6a):
        for a in range(6):
            for b in range(6):
                assert left_divide(z6a, a, b) == right_divide(z6a, a, b)


class TestAbelian:
    def test_fixture_values(self, z6a, d3a):
        assert is_abelian(z6a)
        assert not is_abelian(d3a)

    def test_trivial(self):
        assert is_abelian(HomGroup(((0,),), (0,), 0))


class TestPowers:
    def test_idempotent_elements(self, z3a):
        # the twisted order-3 structure squares every element to itself
        assert right_power(z3a, 2, 2) == 2
        assert right_power(z3a, 1, 2) == 1
        assert left_power(z3a, 2, 2) == 2

    def test_base_case(self, stock_fixture):
        for x in range(stock_fixture.n):
            assert right_power(stock_fixture, x, 1) == x
            assert left_power(stock_fixture, x, 1) == x

    def test_left_power_matches_fold(self, d3a):
        for x in range(6):
            for m in range(1, 8):
                acc = x
                for _ in range(m - 1):
                    acc = d3a.table.entries[x][acc]
                assert left_power(d3a, x, m) == acc

    def test_right_power_matches_fold(self, stock_fixture):
        t = stock_fixture.table.entries
        for x in range(stock_fixture.n):
            acc = x
            for m in range(1, 8):
                assert right_power(stock_fixture, x, m) == acc
                acc = t[acc][x]

    def test_zeroth_power_rejected(self, z3a):
        with pytest.raises(ValueError):
            right_power(z3a, 1, 0)
        with pytest.raises(ValueError):
            left_power(z3a, 1, 0)


class TestPowerOrbit:
    def test_fixed_point(self, z3a):
        assert power_orbit(z3a, 2, "right") == (0, 1, (2,))

    def test_unit_orbit(self, stock_fixture):
        u = stock_fixture.unit
        assert power_orbit(stock_fixture, u, "right") == (0, 1, (u,))
        assert power_orbit(stock_fixture, u, "left") == (0, 1, (u,))

    def test_z6a_orbit_matches_iteration(self, z6a):
        assert power_orbit(z6a, 1, "right") == (0, 2, (1, 4))

    def test_always_periodic(self):
        for G in _all_structures_up_to(4):
            for x in range(G.n):
                for side in ("left", "right"):
                    orbit = power_orbit(G, x, side)
                    assert orbit.period >= 1
                    assert orbit.preperiod + orbit.period == len(orbit.orbit)

    def test_bad_side(self, z3a):
        with pytest.raises(ValueError):
            power_orbit(z3a, 0, "up")


class TestStructuralLemmas:
    """Identities that hold in every verified structure."""

    def _structures(self):
        return [fixture(n) for n in ("z3a", "z6a", "d3a", "z5a")] + _all_structures_up_to(4)

    def test_inversion_antihomomorphism(self):
        for G in self._structures():
            for a in range(G.n):
                for b in range(G.n):
                    assert inverse_of(G, mul(G, a, b)) == mul(
                        G, inverse_of(G, b), inverse_of(G, a)
                    )

    def test_inverse_unique_and_symmetric(self):
        for G in self._structures():
            t = G.table.entries
            for a in range(G.n):
                partners = [b for b in range(G.n) if t[a][b] == G.unit]
                assert len(partners) == 1
                assert t[partners[0]][a] == G.unit

    def test_unit_row_and_column_equal_twist(self):
        for G in self._structures():
            assert G.table.row(G.unit) == G.alpha.images
            assert G.table.col(G.unit) == G.alpha.images

    def test_twist_commutes_with_inversion(self):
        for G in self._structures():
            for a in range(G.n):
                assert inverse_of(G, alpha_apply(G, a, 1)) == alpha_apply(
                    G, inverse_of(G, a), 1
                )

    def test_identity_rows_only_in_groups(self):
        identity_rows = 0
        for G in self._structures():
            ident = tuple(range(G.n))
            for r in range(G.n):
                if G.table.row(r) == ident:
                    identity_rows += 1
                    assert G.alpha.is_identity
                    assert r == G.unit
                    t = G.table.entries
                    assert all(
                        t[t[g][h]][k] == t[g][t[h][k]]
                        for g in range(G.n)
                        for h in range(G.n)
                        for k in range(G.n)
                    )
        assert identity_rows > 0  # the group cases do occur in the sweep

    def test_latin_property(self):
        full = set()
        for G in self._structures():
            full = set(range(G.n))
            for i in range(G.n):
                assert set(G.table.row(i)) == full
                assert set(G.table.col(i)) == full


@given(st.integers(min_value=1, max_value=8))
def test_every_group_is_valid_with_identity_twist(n):
    z = cyclic_group(n)
    G = twist(z, Permutation.identity(n))
    assert G.table == z.table
    assert G.alpha.is_identity
