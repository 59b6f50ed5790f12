"""Enumerate every small Hom-group and sort them into isomorphism classes.

Every Hom-group with unit 0 is a group on the same carrier twisted by
one of its automorphisms (untwist with g.h = alpha^-1(g*h)).  So the
enumeration builds one group per isomorphism class as a cyclic extension
of a smaller group, lists its relabelings that keep the unit at index 0,
and twists each by every automorphism.  At order 3 exactly one twisted
structure survives: the cyclic group twisted by negation.
"""

from homgroups import (
    SearchConfig,
    are_isomorphic,
    canonical_form,
    classify_order,
    cyclic_group,
    enumerate_hom_groups,
    fixture,
    relabel,
    twist,
)
from homgroups.cli import render_text

print("counts by order (twisted only, then with plain groups included):")
print("order  twisted  classes  with-groups  classes")
for n in range(1, 7):
    a = classify_order(n)
    b = classify_order(n, include_groups=True)
    print(f"{n:>5}  {a.raw_count:>7}  {a.class_count:>7}  {b.raw_count:>11}  {b.class_count:>7}")
print()

only = enumerate_hom_groups(SearchConfig(order=3))[0]
print("the single order-3 structure:")
print(render_text(only))
print()

# The hand-built order-3 table is the twist of the cyclic group by
# negation, and the isomorphism finder produces an explicit witness.
other = twist(cyclic_group(3), (0, 2, 1))
f = are_isomorphic(fixture("z3a"), other)
print("witness onto the twisted cyclic group:", f.images)

# Canonical forms are relabeling-invariant, which is how each class
# gets its printed representative: shuffle the non-unit indices any way
# you like.
g6 = fixture("z6a")
shuffled = relabel(g6, (0, 4, 1, 5, 2, 3))
print(
    "canonical table survives relabeling:",
    canonical_form(shuffled).table == canonical_form(g6).table,
)

# At order 5 the three twisted classes come from the three nontrivial
# automorphisms of the cyclic group; doubling and negation land in
# different classes.
z5 = cyclic_group(5)
doubled = twist(z5, (0, 2, 4, 1, 3))
negated = twist(z5, (0, 4, 3, 2, 1))
print("doubling-twist isomorphic to negation-twist?", are_isomorphic(doubled, negated) is not None)
