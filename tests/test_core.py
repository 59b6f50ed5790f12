import copy
import dataclasses
import pickle
from functools import cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from homgroups import core
from homgroups import (
    AxiomReport,
    CayleyTable,
    FiniteGroup,
    HomGroup,
    InvalidStructureError,
    Permutation,
    SearchConfig,
    alpha_apply,
    automorphisms_of,
    cyclic_group,
    dihedral_group,
    direct_product,
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
from oracles import axiom_violations_by_scan, left_divide_scan, right_divide_scan

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

    @given(perm_images, st.integers(min_value=-3, max_value=3))
    def test_power_matches_repeated_compose(self, images, k):
        p = Permutation(tuple(images))
        step = p if k >= 0 else p.inverse()
        q = Permutation.identity(len(p))
        for _ in range(abs(k)):
            q = step.compose(q)
        assert p.power(k) == q

    def test_power_of_one_long_cycle(self):
        # one walk per cycle: linear in n, where a walk per element was quadratic
        n = 2000
        p = Permutation(tuple((i + 1) % n for i in range(n)))
        for k in range(-3, 4):
            assert p.power(k).images == tuple((i + k) % n for i in range(n))

    @pytest.mark.parametrize("i", [-3, -1, 3, True, 1.0, "1"])
    def test_apply_rejects_bad_index(self, i):
        # the cycle walk from a negative index would never come back to it,
        # and a lookup at -1 or True would read another element's image
        for call in (lambda p: p.apply(i, 1), lambda p: p(i)):
            with pytest.raises(ValueError, match="outside 0..2"):
                call(Permutation((1, 0, 2)))

    def test_compose_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Permutation((1, 0)).compose(Permutation((0, 2, 1)))

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


def test_value_types_hold_no_attribute_dict():
    # The labeled listing keeps one table per structure, 25,200 at order 8,
    # so the value types are slotted.  The listing's tables come from
    # HomGroup._from_verified, which bypasses the constructor.  Every value
    # type refuses assignment and deletion, so its hash cannot change.
    listed = enumerate_hom_groups(SearchConfig(order=3))[0]
    built = HomGroup(listed.table, listed.alpha)
    values = [CayleyTable(((0, 1), (1, 0))), Permutation((1, 0)), listed.table, listed.alpha]
    for value in values + [listed, built]:
        assert not hasattr(value, "__dict__")
        before = hash(value)
        names = type(value).__slots__
        for name in (*names, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, names[0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, names[0])
        assert hash(value) == before


def test_value_types_copy_and_pickle():
    # Each value type rebuilds through its own public constructor.
    z3 = cyclic_group(3)
    moved = HomGroup(((0, 2, 1), (2, 1, 0), (1, 0, 2)), (1, 0, 2), unit=2, labels=("a", "b", "e"))
    twisted = twist(z3, (0, 2, 1))
    values = [z3.table, twisted.alpha, z3, twisted, moved, fixture("d3a")]
    routes = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    for value in values:
        for route in routes:
            again = route(value)
            assert type(again) is type(value) and again == value
            assert hash(again) == hash(value)
    assert type(z3) is FiniteGroup and type(twisted) is HomGroup
    # A tampered payload is checked as the constructor checks it.
    build, (table, *rest) = z3.__reduce__()
    assert build is FiniteGroup
    with pytest.raises(InvalidStructureError, match="not a group"):
        build(twisted.table, *rest)


class TestVerify:
    def test_fixtures_valid(self, stock_fixture):
        report = verify(stock_fixture.table, stock_fixture.alpha, stock_fixture.unit)
        assert report.valid
        assert report.violations == ()

    def test_valid_is_read_off_violations(self):
        assert AxiomReport(()).valid
        assert not AxiomReport((("unit-fixed", (1,)),)).valid
        assert "valid" not in repr(AxiomReport(()))

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

    def test_inverse_witnesses_on_repeated_and_missing_units(self):
        # Row 1 holds the unit twice: the partner is its first column, 0, and
        # 0*1 = 1 breaks symmetry; the second column would pass (1*1 = 0).
        # Row 2 lacks the unit.
        table = ((0, 1, 2), (0, 0, 2), (2, 1, 1))
        report = verify(table, (0, 1, 2), 0)
        inverse = [v for v in report.violations if v[0].startswith("inverse")]
        assert inverse == [("inverse-missing", (2,)), ("inverse-asymmetric", (1, 0))]

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


def _unit_magmas(n, loops):
    """Every table on 0..n-1 with two-sided unit 0 and Latin rows, as row
    tuples; with loops set, only those whose columns are Latin too."""
    rows = [[p for p in permutations(range(n)) if p[0] == i] for i in range(n)]
    out = []

    def extend(chosen):
        if len(chosen) == n:
            out.append(tuple(chosen))
            return
        for row in rows[len(chosen)]:
            if not loops or all(row[j] != other[j] for other in chosen for j in range(n)):
                extend(chosen + [row])

    extend([tuple(range(n))])
    return out


# An order-5 loop that is not a group; its unit row is the identity.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))


class TestVerifyAgainstScan:
    """verify settles hom-associativity by Light's test on the untwisted
    table and scans all n^3 triples only when that test fails or cannot
    certify; its reports must equal a plain scan of every axiom."""

    def test_small_structures_and_corruptions(self, corrupted_small_structures):
        cases = corrupted_small_structures
        assert len({G for G, *_ in cases if G.unit == 0}) == 280
        seen = set()
        for _, table, alpha, unit in cases:
            report = verify(table, alpha, unit)
            assert list(report.violations) == axiom_violations_by_scan(table, alpha, unit), (
                table, alpha, unit,
            )
            seen.update(report.tags())
        assert "hom-associativity" in seen and "twist-multiplicative" in seen

    def test_rows_unit_and_twist_pass_but_columns_or_associativity_fail(self):
        # verify accepts on Light's test once the rows are Latin and the unit
        # and twist checks pass, without scanning columns or inverses.  Every
        # order-4 product with unit 0 and Latin rows, and every order-5 loop
        # with unit 0, is twisted here by each map fixing 0 that is one of its
        # automorphisms: the row, unit and twist checks pass on each, while
        # the columns or associativity fail on many.
        seen = set()
        for n, loops in ((4, False), (5, True)):
            for u in _unit_magmas(n, loops):
                for rest in permutations(range(1, n)):
                    a = (0, *rest)
                    if any(a[u[x][y]] != u[a[x]][a[y]] for x in range(n) for y in range(n)):
                        continue
                    table = [[a[v] for v in row] for row in u]
                    report = verify(table, a, 0)
                    assert list(report.violations) == axiom_violations_by_scan(table, a, 0), (
                        table, a,
                    )
                    assert not {"latin-row", "unit-row", "unit-col"} & set(report.tags())
                    assert "twist-multiplicative" not in report.tags()
                    seen.add(report.tags())
        assert () in seen  # the groups
        assert any("latin-col" in tags for tags in seen)
        assert ("hom-associativity",) in seen  # loops that are no group

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_edited_twists_of_zn_and_dn(self, twists_of, data):
        kind = data.draw(st.sampled_from(["zn", "dn"]))
        G = data.draw(st.sampled_from(twists_of(kind, data.draw(st.integers(1, 16)))))
        table = [list(row) for row in G.table.entries]
        cell = data.draw(st.tuples(*[st.integers(0, G.n - 1)] * 3))
        if data.draw(st.booleans()):
            table[cell[0]][cell[1]] = cell[2]
        alpha = list(G.alpha.images)
        report = verify(table, alpha, G.unit)
        assert list(report.violations) == axiom_violations_by_scan(table, alpha, G.unit)

    def test_order_three_tables_with_twisted_unit_lines(self, unit_framed_order3):
        assert len(unit_framed_order3) == 486
        for table, alpha, unit in unit_framed_order3:
            report = verify(table, alpha, unit)
            assert list(report.violations) == axiom_violations_by_scan(table, alpha, unit), (
                table, alpha, unit,
            )

    @pytest.mark.parametrize("swap", [False, True], ids=["unit-0", "unit-1"])
    def test_loop_associative_on_a_subloop_only(self, swap):
        # LOOP5 x Z2 with (l, z) at index 2l + z and the identity twist passes
        # every check before hom-associativity.  Only {unit} x Z2 associates
        # with everything, and the first generator (unit, 1) lies in it, at
        # index 1, or at index 0 once the labels 0 and 1 are swapped.
        p = (1, 0) + tuple(range(2, 10)) if swap else tuple(range(10))
        table = [[0] * 10 for _ in range(10)]
        for x in range(10):
            for y in range(10):
                table[p[x]][p[y]] = p[2 * LOOP5[x // 2][y // 2] + (x ^ y) % 2]
        report = verify(table, range(10), p[0])
        assert report.tags()[0] == "hom-associativity"
        assert list(report.violations) == axiom_violations_by_scan(table, range(10), p[0])

    @pytest.mark.parametrize(
        "table, associative",
        [
            (
                ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 3, 4, 5, 0, 1),
                 (3, 2, 5, 4, 1, 0), (4, 5, 0, 1, 3, 2), (5, 4, 1, 0, 2, 3)),
                1,
            ),
            (
                ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 4, 0, 5, 1, 3),
                 (3, 5, 1, 4, 0, 2), (4, 2, 5, 1, 3, 0), (5, 3, 4, 0, 2, 1)),
                2,
            ),
        ],
        ids=["second-fails", "first-fails"],
    )
    def test_every_generator_row_is_tested(self, table, associative):
        # Loops of order 6 with unit 0 and the identity twist, generated by
        # 1 and 2, of which only one associates with everything: Light's
        # test must reject each by the row of the other generator.
        t, n = table, len(table)
        assert list(core._greedy_generators(t, 0)) == [1, 2]
        middle = [
            g
            for g in (1, 2)
            if all(t[t[x][g]][y] == t[x][t[g][y]] for x in range(n) for y in range(n))
        ]
        assert middle == [associative]
        report = verify(table, range(n), 0)
        assert "hom-associativity" in report.tags()
        assert list(report.violations) == axiom_violations_by_scan(table, range(n), 0)

    def test_hom_groups_never_reach_the_scan(
        self, monkeypatch, corrupted_small_structures, twists_of
    ):
        # Light's test certifies every Hom-group, so the n^3 scan, which
        # only names a witness, never runs on one: (Z2)^k passes with all
        # k generators, and the trivial structure with none.
        cube = direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2))
        groups = [G for G, *_ in corrupted_small_structures]
        groups += [cube, direct_product(cube, cube), *twists_of("zn", 16), *twists_of("dn", 16)]

        def scan(t, a):
            raise AssertionError("the n^3 scan ran on a Hom-group")

        monkeypatch.setattr(core, "_hom_associativity_witness", scan)
        for G in groups:
            assert verify(G.table, G.alpha, G.unit).valid


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
        assert z3a.__eq__(1) is NotImplemented and z3a != 1

    def test_only_table_unit_and_labels_are_stored(self, z3a):
        assert HomGroup.__slots__ == ("table", "unit", "labels")
        # The twist is the unit's row, read off the table on each access.
        moved = HomGroup(((0, 2, 1), (2, 1, 0), (1, 0, 2)), (1, 0, 2), unit=2)
        for G in (z3a, moved, cyclic_group(4)):
            assert G.alpha.images is G.table.entries[G.unit]
        assert repr(z3a) == "HomGroup(n=3, unit=0, alpha=[0, 2, 1])"
        assert repr(moved) == "HomGroup(n=3, unit=2, alpha=[1, 0, 2])"
        assert repr(cyclic_group(2)) == "FiniteGroup(n=2, unit=0, alpha=[0, 1])"

    def test_finite_group_rejects_nonassociative(self):
        loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1),
                (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(loop, 0)

    def test_finite_group_rejects_bad_unit(self):
        with pytest.raises(ValueError, match="unit law"):
            FiniteGroup(((0, 1), (1, 0)), 1)

    def test_rejected_finite_group_carries_report(self):
        loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1),
                (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))
        with pytest.raises(InvalidStructureError) as exc:
            FiniteGroup(loop, 0)
        assert exc.value.report == verify(loop, Permutation.identity(5), 0)
        assert exc.value.report.tags() == ("hom-associativity", "inverse-asymmetric")

    def test_finite_group_is_the_identity_twist(self):
        z4 = cyclic_group(4)
        assert isinstance(z4, HomGroup) and z4.alpha.is_identity
        assert z4 == HomGroup(z4.table, Permutation.identity(4), 0, labels=z4.labels)


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

    @pytest.mark.parametrize("bad", [True, False, 1.0, -1])
    def test_index_must_be_an_int(self, z3a, bad):
        # True would otherwise read row 1, -1 the last row, and 1.0 fail
        # with a TypeError
        G = cyclic_group(3)
        for call in (
            lambda: mul(z3a, bad, 1),
            lambda: mul(z3a, 0, bad),
            lambda: G.mul(bad, 1),
            lambda: G.mul(0, bad),
            lambda: G.inv(bad),
            lambda: z3a.label(bad),
            lambda: z3a.table.row(bad),
            lambda: z3a.table.col(bad),
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


@pytest.mark.parametrize("bad", [True, False, 1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda G, k: alpha_apply(G, 1, k),
        lambda G, k: right_power(G, 1, k),
        lambda G, k: left_power(G, 1, k),
        lambda G, k: G.alpha.apply(1, k),
        lambda G, k: G.alpha.power(k),
    ],
    ids=["alpha_apply", "right_power", "left_power", "Permutation.apply", "Permutation.power"],
)
def test_exponent_must_be_an_int(z6a, call, bad):
    # True would otherwise count as 1, and 1.0 fail with a TypeError
    with pytest.raises(ValueError, match="exponent"):
        call(z6a, bad)


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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_powers_match_the_naive_fold(self, data):
        kind = data.draw(st.sampled_from(["zn", "dn"]))
        G = data.draw(st.sampled_from(_twists_of(kind, data.draw(st.integers(1, 8)))))
        x = data.draw(st.integers(0, G.n - 1))
        t = G.table.entries
        right = left = x
        for m in range(1, 3 * G.n + 1):
            assert right_power(G, x, m) == right, m
            assert left_power(G, x, m) == left, m
            right = t[right][x]
            left = t[x][left]

    def test_error_precedence(self, z3a):
        # index, then exponent type, then m >= 1
        with pytest.raises(ValueError, match="index"):
            right_power(z3a, 3, 0.5)
        with pytest.raises(ValueError, match="exponent"):
            left_power(z3a, 0, -1.0)
        with pytest.raises(ValueError, match="power must be >= 1"):
            right_power(z3a, 0, -1)


@cache
def _twists_of(kind, k):
    G = cyclic_group(k) if kind == "zn" else dihedral_group(k)
    return tuple(twist(G, a) for a in automorphisms_of(G))


class TestPowerOrbit:
    def test_fixed_point(self, z3a):
        assert power_orbit(z3a, 2, "right") == (1, (2,))

    def test_unit_orbit(self, stock_fixture):
        u = stock_fixture.unit
        assert power_orbit(stock_fixture, u, "right") == (1, (u,))
        assert power_orbit(stock_fixture, u, "left") == (1, (u,))

    def test_z6a_orbit_matches_iteration(self, z6a):
        assert power_orbit(z6a, 1, "right") == (2, (1, 4))

    def test_always_periodic(self):
        for G in _all_structures_up_to(4):
            for x in range(G.n):
                for side in ("left", "right"):
                    orbit = power_orbit(G, x, side)
                    assert orbit.period >= 1
                    assert orbit.period == len(orbit.orbit)

    def test_bad_side(self, z3a):
        with pytest.raises(ValueError):
            power_orbit(z3a, 0, "up")

    def test_powers_run_round_one_cycle(self):
        # Multiplying by x permutes the carrier, so the powers start at x and
        # the next one after the last is x again; right_power and left_power rely on it.
        for G in _all_structures_up_to(6):
            t = G.table.entries
            for x in range(G.n):
                for side in ("left", "right"):
                    orbit = power_orbit(G, x, side).orbit
                    last = orbit[-1]
                    assert orbit[0] == x
                    assert (t[last][x] if side == "right" else t[x][last]) == x


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
