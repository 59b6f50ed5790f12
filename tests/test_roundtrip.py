"""Round trips through twisting, documents and relabeling, and the shape
of result types.

The structures are twists of Z_k and D_k for k <= 16 and of Z2 x Z4 and
Z3 x D3, each by an automorphism drawn from the full list.
"""

import dataclasses
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from homgroups import (
    AxiomReport,
    CauchyReport,
    ClassificationReport,
    Coset,
    FiniteGroup,
    GroupHopfAlgebra,
    LagrangeReport,
    SubsetHandle,
    automorphisms_of,
    canonical_form,
    classify_order,
    cyclic_group,
    dihedral_group,
    direct_product,
    relabel,
    twist,
)
from homgroups.cli import document_to_hom_group, hom_group_to_document
from oracles import lexmin_classes

GROUPS = (
    [("zn", k) for k in range(1, 17)]
    + [("dn", k) for k in range(1, 17)]
    + [("z2xz4", 8), ("z3xd3", 18)]
)


@cache
def _group(kind, k):
    if kind == "zn":
        return cyclic_group(k)
    if kind == "dn":
        return dihedral_group(k)
    if kind == "z2xz4":
        return direct_product(cyclic_group(2), cyclic_group(4))
    return direct_product(cyclic_group(3), dihedral_group(3))


@cache
def _automorphisms(key):
    return automorphisms_of(_group(*key))


@st.composite
def twisted_groups(draw, max_order=None):
    keys = [k for k in GROUPS if max_order is None or _group(*k).n <= max_order]
    key = draw(st.sampled_from(keys))
    alpha = draw(st.sampled_from(_automorphisms(key)))
    return twist(_group(*key), alpha)


@settings(max_examples=60, deadline=None)
@given(twisted_groups())
def test_untwist_then_twist_gives_the_table_back(G):
    n, t, a = G.n, G.table.entries, G.alpha.images
    a_inv = G.alpha.inverse().images
    untwisted = [[a_inv[t[g][h]] for h in range(n)] for g in range(n)]
    # the untwisted product is a group with the same unit, and alpha is
    # one of its automorphisms
    R = FiniteGroup(untwisted, unit=G.unit)
    assert twist(R, a).table == G.table


@settings(max_examples=60, deadline=None)
@given(twisted_groups())
def test_document_round_trip(G):
    assert document_to_hom_group(hom_group_to_document(G)) == G


@settings(max_examples=60, deadline=None)
@given(twisted_groups(max_order=8), st.randoms(use_true_random=False))
def test_relabel_commutes_with_the_canonical_form(G, rng):
    assert canonical_form(relabel(G, rng.sample(range(G.n), G.n))) == canonical_form(G)


def test_order_seven_classes_are_lexmin_fixed_points():
    # lexmin_classes minimizes over every relabeling by its own loop: a
    # second route to canonical_form past the orders the listing covers.
    rng = random.Random(7)
    for R in classify_order(7, include_groups=True, max_order_guard=7).representatives:
        for _ in range(3):
            moved = relabel(R, rng.sample(range(7), 7))
            assert lexmin_classes([(moved.table.entries, moved.unit)]) == [R.table.entries]


@pytest.mark.parametrize(
    "cls, names",
    [
        (AxiomReport, ("violations",)),
        (Coset, ("representative", "members")),
        (LagrangeReport, ("entries",)),
        (CauchyReport, ("entries",)),
        (ClassificationReport, ("raw_count", "representatives")),
        (GroupHopfAlgebra, ("product", "unit", "antipode", "alpha")),
        (SubsetHandle, ("members",)),
    ],
)
def test_result_types_hold_only_results(cls, names):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
