"""Round trips through twisting and documents, and the shape of result types.

The structures are twists of Z_k and D_k for k <= 16 and of Z2 x Z4 and
Z3 x D3, each by an automorphism drawn from the full list.
"""

import dataclasses
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
    automorphisms_of,
    cyclic_group,
    dihedral_group,
    direct_product,
    twist,
)
from homgroups.cli import document_to_hom_group, hom_group_to_document

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
def twisted_groups(draw):
    key = draw(st.sampled_from(GROUPS))
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


@pytest.mark.parametrize(
    "cls, names",
    [
        (AxiomReport, ("violations",)),
        (Coset, ("representative", "members")),
        (LagrangeReport, ("entries",)),
        (CauchyReport, ("entries",)),
        (ClassificationReport, ("raw_count", "representatives")),
        (GroupHopfAlgebra, ("product", "unit", "antipode", "alpha")),
    ],
)
def test_result_types_hold_only_results(cls, names):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
