import dataclasses
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from homgroups import (
    CayleyTable,
    FormalElement,
    FormalTensor,
    GroupHopfAlgebra,
    HomGroup,
    Permutation,
    SearchConfig,
    build_group_hopf,
    center_hopf_dim,
    cyclic_group,
    enumerate_hom_groups,
    fixture,
    is_abelian,
    is_cocommutative,
    is_commutative,
    sub_hopf_dims,
    twist,
    verify_hom_hopf,
)
from oracles import hopf_violations_by_scan

TRIVIAL = HomGroup(((0,),), (0,), 0)


def _hopf_cases():
    """The span of every structure of order 1-5, and for each of order at
    least 2 three seeded corruptions: one antipode image, the twist, and
    one table cell, each changed to a different value."""
    rng = random.Random(20181)
    cases = []
    for n in range(1, 6):
        for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
            A = build_group_hopf(G)
            cases.append(A)
            if n == 1:
                continue
            antipode = list(A.antipode)
            i = rng.randrange(n)
            antipode[i] = (antipode[i] + rng.randrange(1, n)) % n
            cases.append(dataclasses.replace(A, antipode=tuple(antipode)))
            images = list(A.alpha.images)
            while images == list(A.alpha.images):
                rng.shuffle(images)
            cases.append(dataclasses.replace(A, alpha=Permutation(tuple(images))))
            table = [list(row) for row in A.product.entries]
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = (table[i][j] + rng.randrange(1, n)) % n
            cases.append(dataclasses.replace(A, product=CayleyTable(table)))
    return cases


def _outer(x, t):
    """x (x) t for a formal element x and a tensor t."""
    return FormalTensor(
        t.rank + 1, {(i,) + k: a * b for i, a in x.coeffs.items() for k, b in t.coeffs.items()}
    )


def _outer_right(t, x):
    """t (x) x for a tensor t and a formal element x."""
    return FormalTensor(
        t.rank + 1, {k + (i,): b * a for k, b in t.coeffs.items() for i, a in x.coeffs.items()}
    )


class TestFormalElements:
    def test_zero_coefficients_dropped(self):
        x = FormalElement({0: 1, 1: 0, 2: -3})
        assert x.coeffs == {0: 1, 2: -3}

    def test_arithmetic(self):
        x = FormalElement.basis(0) + FormalElement.basis(1).scale(2)
        y = x - FormalElement.basis(0)
        assert y == FormalElement({1: 2})
        assert (y - y) == FormalElement.zero()
        assert repr(x) == "1*e0 + 2*e1" and repr(y - y) == "0"
        assert hash(y) == hash(FormalElement([(1, 2), (0, 0)])) and len({y, y.scale(1)}) == 1
        s, t = FormalTensor(2, {(0, 0): 1}), FormalTensor.basis((0, 0))
        assert s == t and hash(s) == hash(t) and len({s, t}) == 1

    def test_tensor_rank_checked(self, z3a):
        with pytest.raises(ValueError):
            FormalTensor(2, {(0, 1, 2): 1})
        with pytest.raises(ValueError):
            FormalTensor(2, {(0, 1): 1}) + FormalTensor(3, {(0, 1, 2): 1})
        A, pair = build_group_hopf(z3a), FormalTensor.basis((0, 1))
        for x, y in ((FormalTensor.basis((0,)), pair), (pair, FormalTensor.basis((0, 1, 2)))):
            with pytest.raises(ValueError, match="rank-2 tensors expected"):
                A.tensor_product_of(x, y)

    # 2.0 == 2 and True == 1, so only the exact type keeps them out.
    @pytest.mark.parametrize("rank", [2.0, True, False, -1, "2", None])
    def test_tensor_rank_must_be_an_int(self, rank):
        with pytest.raises(ValueError, match=re.escape(f"rank {rank!r} ")):
            FormalTensor(rank, {(0, 1): 1})
        with pytest.raises(ValueError, match=re.escape(f"rank {rank!r} ")):
            FormalTensor(rank)

    # 0.5 makes a sum inexact; True == 1 and 1.0 == 1 would pass as ints.
    @pytest.mark.parametrize("c", [0.5, 1.0, 0.0, True, False, "1", None])
    def test_coefficients_must_be_ints(self, c):
        pattern = re.escape(f"coefficient {c!r} ")
        for coeffs in ({0: 1, 1: c}, [(1, c)]):
            with pytest.raises(ValueError, match=pattern):
                FormalElement(coeffs)
        for coeffs in ({(0, 1): c}, [((0, 1), c)]):
            with pytest.raises(ValueError, match=pattern):
                FormalTensor(2, coeffs)
        for x in (FormalElement.basis(1), FormalTensor.basis((0, 1)), FormalElement.zero()):
            with pytest.raises(ValueError, match=pattern):
                x.scale(c)

    def test_products_of_int_sums_stay_int(self, z3a):
        A = build_group_hopf(z3a)
        x = FormalElement({0: 2, 1: -1, 2: 3})
        for out in (A.product_of(x, x), A.antipode_of(x), x.scale(-2), x - x.scale(3)):
            assert all(type(v) is int for v in out.coeffs.values())

    @pytest.mark.parametrize("element_first", [True, False])
    def test_element_and_tensor_do_not_add(self, element_first):
        x, t = FormalElement.basis(1), FormalTensor.basis((1,))
        with pytest.raises(ValueError, match="rank mismatch"):
            (x + t) if element_first else (t + x)
        assert x != t and t != x
        # Neither adds to, subtracts nor equals what is not a sum.
        for s in (x, t):
            for op in (s.__add__, s.__sub__, s.__eq__):
                assert op(1) is NotImplemented
            for op in (lambda: s + 1, lambda: s - 3):
                with pytest.raises(TypeError):
                    op()
            assert s != 1

    def test_tensor_equality(self):
        s = FormalTensor.basis((1, 1)) + FormalTensor.basis((2, 2))
        t = FormalTensor(2, {(2, 2): 1, (1, 1): 1})
        assert s == t

    # True == 1 would act as e1, and -1 would wrap round to the last row.
    @pytest.mark.parametrize("key", [-1, -2, True, False, 1.0, "1", None])
    def test_element_keys_must_be_basis_indices(self, key):
        for coeffs in ({key: 1}, {key: 0}, [(key, 3)]):
            with pytest.raises(ValueError, match=f"basis index {key!r} "):
                FormalElement(coeffs)

    @pytest.mark.parametrize("key", [3, (0, -1), (True, 0), (0, 1.0), ("0", 1), (0,), (0, 1, 2)])
    def test_tensor_keys_must_be_tuples_of_basis_indices(self, key):
        for coeffs in ({key: 1}, {key: 0}, [(key, 3)]):
            with pytest.raises(ValueError, match=re.escape(f"key {key!r} ")):
                FormalTensor(2, coeffs)

    def test_given_dict_is_not_kept(self):
        coeffs = {0: 1, 1: 0}
        x = FormalElement(coeffs)
        coeffs[2] = 5
        assert x.coeffs == {0: 1}

    def test_structure_maps_reject_indices_past_the_carrier(self, z5a):
        A = build_group_hopf(z5a)
        e1 = FormalElement.basis(1)
        assert A.product_of(FormalElement.basis(4), e1) == FormalElement.basis(z5a.table.row(4)[1])
        for bad in (FormalElement.basis(5), FormalElement({7: 3})):
            with pytest.raises(IndexError):
                A.product_of(bad, e1)
            with pytest.raises(IndexError):
                A.antipode_of(bad)


class TestBuild:
    def test_antipode_reads_inverses_off_the_table(self, z6a):
        A = build_group_hopf(z6a)
        assert A.antipode == z6a.inverses
        assert A.antipode[1] == 5  # row 1 holds the unit at column 5

    def test_z5a_structure_maps(self, z5a):
        A = build_group_hopf(z5a)
        assert A.coproduct_of(FormalElement.basis(2)) == FormalTensor.basis((2, 2))
        assert A.counit_of(FormalElement.basis(2)) == 1
        assert A.antipode_of(FormalElement.basis(2)) == FormalElement.basis(3)

    def test_trivial_structure(self):
        A = build_group_hopf(TRIVIAL)
        assert A.antipode == (0,)
        assert A.product_of(A.unit_element(), A.unit_element()) == A.unit_element()

    def test_cotwist_must_be_identity(self, d3a):
        # the algebra twist of d3a is not the identity; the cotwist is
        x = FormalElement({g: g - 2 for g in range(6)})
        assert build_group_hopf(d3a).cotwist_of(x) == x

    def test_plain_twist_is_converted(self, z3a):
        A = dataclasses.replace(build_group_hopf(z3a), alpha=(0, 2, 1))
        assert A.alpha == Permutation((0, 2, 1))
        assert A.twist_of(FormalElement.basis(1)) == FormalElement.basis(2)
        with pytest.raises(ValueError):
            dataclasses.replace(A, alpha=(0, 2, 2))
        with pytest.raises(ValueError, match="twist length mismatch"):
            dataclasses.replace(A, alpha=(1, 0))

    def test_plain_table_is_converted(self, z3a):
        rows = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
        A = dataclasses.replace(build_group_hopf(z3a), product=rows)
        assert A == build_group_hopf(z3a)
        assert verify_hom_hopf(A).valid
        with pytest.raises(ValueError):
            dataclasses.replace(A, product=[[0, 2, 1], [2, 1, 0], [1, 0, 3]])

    @pytest.mark.parametrize(
        "field,value",
        [("unit", True), ("unit", 0.0), ("antipode", (0, 2.0, 1)), ("antipode", (False, 2, 1))],
    )
    def test_non_int_unit_or_antipode_rejected(self, z3a, field, value):
        # a bool would otherwise index the table as 0 or 1
        with pytest.raises(ValueError):
            dataclasses.replace(build_group_hopf(z3a), **{field: value})

    def test_bad_antipode_length(self, z3a):
        with pytest.raises(ValueError):
            GroupHopfAlgebra(product=z3a.table, unit=0, antipode=(0, 1), alpha=z3a.alpha)


class TestVerifyHomHopf:
    def test_fixtures_valid(self, stock_fixture):
        report = verify_hom_hopf(build_group_hopf(stock_fixture))
        assert report.valid and report.violations == ()

    def test_plain_group_span_valid(self):
        G = twist(cyclic_group(6), Permutation.identity(6))
        assert verify_hom_hopf(build_group_hopf(G)).valid

    def test_corrupted_antipode_witnessed(self, z6a):
        A = build_group_hopf(z6a)
        bad = list(A.antipode)
        bad[1] = 1
        report = verify_hom_hopf(dataclasses.replace(A, antipode=tuple(bad)))
        assert not report.valid
        assert ("antipode", (1,)) in report.violations

    def test_corrupted_antipode_at_unit(self, z3a):
        A = build_group_hopf(z3a)
        bad = (1, 2, 0)  # moves the unit as well
        report = verify_hom_hopf(dataclasses.replace(A, antipode=bad))
        assert "antipode-unit" in report.tags()

    def test_all_small_structures_valid(self):
        for n in range(1, 6):
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                assert verify_hom_hopf(build_group_hopf(G)).valid

    def test_matches_scan_oracle(self):
        seen = set()
        for A in _hopf_cases():
            expected = hopf_violations_by_scan(
                [list(row) for row in A.product.entries],
                list(A.alpha.images),
                A.unit,
                list(A.antipode),
            )
            report = verify_hom_hopf(A)
            assert list(report.violations) == expected, A
            assert report.valid == (not expected)
            seen.update(report.tags())
        # the corruptions reach every identity that depends on the data
        assert seen == {"algebra-assoc", "algebra-unit", "antipode", "antipode-unit"}

    def test_matches_scan_oracle_up_to_order_6(self, corrupted_small_structures):
        # algebra-assoc goes through Light's test, inside core.verify, on
        # every table that passes the Hom-group checks made before it.
        for G, table, alpha, unit in corrupted_small_structures:
            A = dataclasses.replace(
                build_group_hopf(G),
                product=CayleyTable(table),
                alpha=Permutation(alpha),
                unit=unit,
            )
            expected = hopf_violations_by_scan(table, alpha, unit, list(G.inverses))
            assert list(verify_hom_hopf(A).violations) == expected, (table, alpha, unit)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_edited_twists_of_zn_and_dn(self, twists_of, data):
        kind = data.draw(st.sampled_from(["zn", "dn"]))
        G = data.draw(st.sampled_from(twists_of(kind, data.draw(st.integers(1, 16)))))
        table = [list(row) for row in G.table.entries]
        cell = data.draw(st.tuples(*[st.integers(0, G.n - 1)] * 3))
        if data.draw(st.booleans()):
            table[cell[0]][cell[1]] = cell[2]
        A = dataclasses.replace(build_group_hopf(G), product=CayleyTable(table))
        expected = hopf_violations_by_scan(table, G.alpha.images, G.unit, G.inverses)
        assert list(verify_hom_hopf(A).violations) == expected

    def test_algebra_laws_read_off_one_verify(self, monkeypatch):
        # The twisted associativity and unit laws are the Hom-group axioms of
        # the same table, so each check asks core.verify exactly once.
        import homgroups.homhopf as homhopf

        cases = _hopf_cases()
        expected = [verify_hom_hopf(A) for A in cases]
        calls = []
        check = homhopf.verify
        monkeypatch.setattr(homhopf, "verify", lambda *args: calls.append(args) or check(*args))
        assert [verify_hom_hopf(A) for A in cases] == expected
        assert len(calls) == len(cases)

    def test_unreached_unit_is_not_certified(self):
        # With the identity twist the generators 1 and 2 would pass Light's
        # test and reach only {1, 2, 3}, a copy of Z3; the claimed unit 0 is
        # outside that closure and breaks associativity, so the scan must run.
        table = ((0, 1, 2, 3), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
        A = dataclasses.replace(build_group_hopf(cyclic_group(4)), product=CayleyTable(table))
        report = verify_hom_hopf(A)
        assert report.violations[0] == ("algebra-assoc", (2, 0, 1))
        assert list(report.violations) == hopf_violations_by_scan(table, A.alpha.images, 0, A.antipode)

    def test_order_three_tables_with_twisted_unit_lines(self, unit_framed_order3):
        # algebra-unit holds on all of them, Latin or not, and 36 of the
        # non-Latin ones satisfy algebra-assoc all the same; the antipode is
        # each row's unit position, or the unit where the row has none.
        base = build_group_hopf(cyclic_group(3))
        non_latin_associative = 0
        for table, alpha, unit in unit_framed_order3:
            antipode = tuple(row.index(unit) if unit in row else unit for row in table)
            A = dataclasses.replace(
                base,
                product=CayleyTable(table),
                alpha=Permutation(tuple(alpha)),
                unit=unit,
                antipode=antipode,
            )
            report = verify_hom_hopf(A)
            assert list(report.violations) == hopf_violations_by_scan(table, alpha, unit, antipode)
            latin = all(len(set(row)) == 3 for row in table)
            non_latin_associative += not latin and "algebra-assoc" not in report.tags()
        assert non_latin_associative == 36

    def test_coalgebra_identities_hold_by_construction(self):
        # The identities verify_hom_hopf does not check, through the linear maps.
        for A in _hopf_cases():
            e = FormalElement.basis
            one = A.unit_element()
            assert A.coproduct_of(one) == FormalTensor.basis((A.unit, A.unit))
            assert A.counit_of(one) == 1
            for g in range(A.n):
                delta = A.coproduct_of(e(g))
                lhs = FormalTensor(3)
                rhs = FormalTensor(3)
                left = FormalElement.zero()
                right = FormalElement.zero()
                for (c1, c2), c in delta.coeffs.items():
                    lhs = lhs + _outer(A.cotwist_of(e(c1)), A.coproduct_of(e(c2))).scale(c)
                    rhs = rhs + _outer_right(A.coproduct_of(e(c1)), A.cotwist_of(e(c2))).scale(c)
                    left = left + e(c1).scale(c * A.counit_of(e(c2)))
                    right = right + e(c2).scale(c * A.counit_of(e(c1)))
                assert lhs == rhs, ("coassociativity", g)
                flipped = FormalTensor(2, {(c2, c1): c for (c1, c2), c in delta.coeffs.items()})
                assert flipped == delta, ("cocommutativity", g)
                assert left == right == A.cotwist_of(e(g)), ("counit", g)
                assert A.counit_of(A.twist_of(e(g))) == A.counit_of(e(g)), ("counit-twist", g)
                assert A.counit_of(A.antipode_of(e(g))) == A.counit_of(e(g)), ("antipode-counit", g)
                for h in range(A.n):
                    gh = A.product_of(e(g), e(h))
                    assert A.coproduct_of(gh) == A.tensor_product_of(
                        delta, A.coproduct_of(e(h))
                    ), ("coproduct-product", g, h)
                    assert A.counit_of(gh) == A.counit_of(e(g)) * A.counit_of(e(h))


class TestGroupLike:
    def test_basis_elements_are_group_like(self, stock_fixture):
        A = build_group_hopf(stock_fixture)
        for g in range(A.n):
            e = FormalElement.basis(g)
            assert A.coproduct_of(e) == FormalTensor.basis((g, g))
            assert A.counit_of(e) == 1

    def test_always_cocommutative(self, stock_fixture):
        assert is_cocommutative(build_group_hopf(stock_fixture))

    def test_commutative_iff_abelian(self, z6a, d3a):
        assert is_commutative(build_group_hopf(z6a))
        assert not is_commutative(build_group_hopf(d3a))
        for n in range(1, 5):
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                assert is_commutative(build_group_hopf(G)) == is_abelian(G)


class TestDimensions:
    def test_z6a_dims(self, z6a):
        assert sub_hopf_dims(z6a) == [1, 2, 3, 6]

    def test_z5a_has_no_proper_nontrivial_subobject(self, z5a):
        assert sub_hopf_dims(z5a) == [1, 5]

    def test_trivial(self):
        assert sub_hopf_dims(TRIVIAL) == [1]

    def test_divisibility_over_small_structures(self):
        for n in range(1, 6):
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                assert all(G.n % d == 0 for d in sub_hopf_dims(G))

    def test_center_dims(self, z6a, d3a):
        assert center_hopf_dim(z6a) == 6
        assert center_hopf_dim(d3a) == 1
        assert center_hopf_dim(TRIVIAL) == 1
