"""Lift a Hom-group to its span and check the twisted Hopf axioms.

The free span of the carrier gets: the table as product, the diagonal
coproduct, the constant-one counit, inversion as antipode, and the pair
of twists (alpha, identity).  Since every structure map is basis-to-basis,
checking the axioms on basis elements settles them for the whole span;
on basis elements they are identities of the Cayley table, the twist and
the inversion map.  The subobject dimensions are exactly the Hom-subgroup
sizes -- so they divide the carrier size.
"""

import dataclasses

from homgroups import (
    FormalElement,
    build_group_hopf,
    center_hopf_dim,
    fixture,
    is_cocommutative,
    is_commutative,
    sub_hopf_dims,
    verify_hom_hopf,
)

for name in ("z3a", "z6a", "d3a", "z5a"):
    G = fixture(name)
    A = build_group_hopf(G)
    report = verify_hom_hopf(A)
    print(
        f"{name}: axioms {'pass' if report.valid else 'FAIL'},"
        f" commutative={is_commutative(A)}, cocommutative={is_cocommutative(A)},"
        f" subobject dims={sub_hopf_dims(G)}, center dim={center_hopf_dim(G)}"
    )
print()

# Formal elements multiply bilinearly with exact integer coefficients.
A = build_group_hopf(fixture("z6a"))
x = FormalElement.basis(1) + FormalElement.basis(2).scale(3)
y = FormalElement.basis(4)
print("(e1 + 3*e2) * e4 =", A.product_of(x, y))
print("coproduct of e2:", A.coproduct_of(FormalElement.basis(2)))
print("antipode of e1:", A.antipode_of(FormalElement.basis(1)))
print()

# Corrupt one antipode image and the convolution-inverse law breaks with
# a named witness.
bad = list(A.antipode)
bad[1] = 1
report = verify_hom_hopf(dataclasses.replace(A, antipode=tuple(bad)))
print("after corrupting the antipode at basis index 1:")
for tag, witness in report.violations:
    print(f"  broken: {tag} at {witness}")
