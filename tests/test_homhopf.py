import dataclasses
import random

import pytest

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

    def test_tensor_rank_checked(self):
        with pytest.raises(ValueError):
            FormalTensor(2, {(0, 1, 2): 1})
        with pytest.raises(ValueError):
            FormalTensor(2, {(0, 1): 1}) + FormalTensor(3, {(0, 1, 2): 1})

    def test_tensor_equality(self):
        s = FormalTensor.basis((1, 1)) + FormalTensor.basis((2, 2))
        t = FormalTensor(2, {(2, 2): 1, (1, 1): 1})
        assert s == t


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

    def test_cotwist_must_be_identity(self, z3a):
        with pytest.raises(ValueError, match="identity"):
            GroupHopfAlgebra(
                base=z3a,
                product=z3a.table,
                unit=0,
                antipode=z3a.inverses,
                alpha=z3a.alpha,
                beta=Permutation((0, 2, 1)),
            )

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
            GroupHopfAlgebra(
                base=z3a,
                product=z3a.table,
                unit=0,
                antipode=(0, 1),
                alpha=z3a.alpha,
                beta=Permutation.identity(3),
            )


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
