"""Linearization of a Hom-group into its group Hopf algebra.

The span of the carrier over an abstract field carries a product from the
Cayley table, the diagonal coproduct, the constant-one counit, inversion
as antipode, and the pair of twists (alpha, identity).  Every structure
map sends basis elements to basis elements or basis tensors, so each Hopf
identity holds as an identity of linear maps exactly when it holds on
basis inputs; coefficients never leave the integers 0 and 1.

verify_hom_hopf therefore checks the axioms on the Cayley table, the twist
and the inversion map.  FormalElement and FormalTensor are the linear
extension of the structure maps to arbitrary integer combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .core import AxiomReport, CayleyTable, HomGroup, Permutation
from .subgroups import center, enumerate_hom_subgroups


class FormalElement:
    """Sparse integer combination of basis indices; zeros are not stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        self.coeffs = {k: v for k, v in dict(coeffs).items() if v != 0}

    @classmethod
    def basis(cls, i: int) -> "FormalElement":
        return cls({i: 1})

    @classmethod
    def zero(cls) -> "FormalElement":
        return cls()

    def scale(self, c: int) -> "FormalElement":
        return FormalElement({k: c * v for k, v in self.coeffs.items()})

    def __add__(self, other: "FormalElement") -> "FormalElement":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return FormalElement(out)

    def __sub__(self, other: "FormalElement") -> "FormalElement":
        return self + other.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*e{k}" for k, v in sorted(self.coeffs.items()))


class FormalTensor:
    """Sparse integer combination of basis index tuples of a fixed rank."""

    __slots__ = ("rank", "coeffs")

    def __init__(
        self,
        rank: int,
        coeffs: Union[Mapping[tuple[int, ...], int], Iterable[tuple[tuple[int, ...], int]]] = (),
    ):
        self.rank = rank
        cleaned = {}
        for k, v in dict(coeffs).items():
            if len(k) != rank:
                raise ValueError(f"key {k} has rank {len(k)}, expected {rank}")
            if v != 0:
                cleaned[tuple(k)] = v
        self.coeffs = cleaned

    @classmethod
    def basis(cls, key: tuple[int, ...]) -> "FormalTensor":
        return cls(len(key), {tuple(key): 1})

    def __add__(self, other: "FormalTensor") -> "FormalTensor":
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return FormalTensor(self.rank, out)

    def scale(self, c: int) -> "FormalTensor":
        return FormalTensor(self.rank, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalTensor):
            return NotImplemented
        return self.rank == other.rank and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*e{k}" for k, v in sorted(self.coeffs.items()))


@dataclass(frozen=True)
class GroupHopfAlgebra:
    """Basis-presented Hopf structure on the span of a Hom-group.

    Structure maps act on basis indices: the product via the Cayley
    table, the coproduct diagonally, the counit as the constant 1, the
    antipode via the inversion table, with the algebra twist alpha and
    the coalgebra twist fixed to the identity.
    """

    base: HomGroup
    product: CayleyTable
    unit: int
    antipode: tuple[int, ...]
    alpha: Permutation
    beta: Permutation

    def __post_init__(self):
        n = self.product.n
        object.__setattr__(self, "antipode", tuple(self.antipode))
        if len(self.antipode) != n:
            raise ValueError("antipode table length mismatch")
        for i, v in enumerate(self.antipode):
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"antipode[{i}] = {v!r} outside 0..{n - 1}")
        if len(self.alpha) != n or len(self.beta) != n:
            raise ValueError("twist length mismatch")
        if not self.beta.is_identity:
            raise ValueError("coalgebra twist must be the identity")
        if type(self.unit) is not int or not 0 <= self.unit < n:
            raise ValueError(f"unit {self.unit!r} outside 0..{n - 1}")

    @property
    def n(self) -> int:
        return self.product.n

    def unit_element(self) -> FormalElement:
        return FormalElement.basis(self.unit)

    def product_of(self, x: FormalElement, y: FormalElement) -> FormalElement:
        t = self.product.entries
        out: dict[int, int] = {}
        for i, ci in x.coeffs.items():
            for j, cj in y.coeffs.items():
                k = t[i][j]
                out[k] = out.get(k, 0) + ci * cj
        return FormalElement(out)

    def tensor_product_of(self, x: FormalTensor, y: FormalTensor) -> FormalTensor:
        """Componentwise product (a (x) b)(c (x) d) = ac (x) bd on rank-2 tensors."""
        if x.rank != 2 or y.rank != 2:
            raise ValueError("rank-2 tensors expected")
        t = self.product.entries
        out: dict[tuple[int, ...], int] = {}
        for (a, b), cx in x.coeffs.items():
            for (c, d), cy in y.coeffs.items():
                key = (t[a][c], t[b][d])
                out[key] = out.get(key, 0) + cx * cy
        return FormalTensor(2, out)

    def coproduct_of(self, x: FormalElement) -> FormalTensor:
        return FormalTensor(2, {(i, i): c for i, c in x.coeffs.items()})

    def counit_of(self, x: FormalElement) -> int:
        return sum(x.coeffs.values())

    def antipode_of(self, x: FormalElement) -> FormalElement:
        out: dict[int, int] = {}
        for i, c in x.coeffs.items():
            k = self.antipode[i]
            out[k] = out.get(k, 0) + c
        return FormalElement(out)

    def twist_of(self, x: FormalElement) -> FormalElement:
        return FormalElement({self.alpha(i): c for i, c in x.coeffs.items()})

    def cotwist_of(self, x: FormalElement) -> FormalElement:
        return FormalElement({self.beta(i): c for i, c in x.coeffs.items()})


def build_group_hopf(G: HomGroup) -> GroupHopfAlgebra:
    """Populate the structure maps of the span of G from its table."""
    return GroupHopfAlgebra(
        base=G,
        product=G.table,
        unit=G.unit,
        antipode=G.inverses,
        alpha=G.alpha,
        beta=Permutation.identity(G.n),
    )


def verify_hom_hopf(A: GroupHopfAlgebra) -> AxiomReport:
    """Check the twisted Hopf axioms on the Cayley table.

    Every structure map sends basis elements to basis elements, so each
    identity is one of the table t, the twist a, the antipode s and the
    unit u.  Four depend on that data; each is reported with its first
    failing basis tuple:

    - algebra-assoc: a(g)(hk) = (gh)a(k), witness (g, h, k);
    - algebra-unit: a(u) = u, witness (u,), then gu = ug = a(g);
    - antipode: s(g)g = gs(g) = u, which is S(x1)x2 = x1S(x2) = eps(x)1
      on the group-like basis element g;
    - antipode-unit: s(u) = u, witness (u,).

    The other eight identities (coassociativity, counit, coproduct-product,
    coproduct-unit, counit-product, counit-unit, counit-twist and
    antipode-counit) hold for every table, twist and antipode, so they have
    no runtime check: the coproduct g -> g (x) g is diagonal and
    multiplicative, the counit is constantly 1, and construction forces
    the cotwist to be the identity.
    """
    t = A.product.entries
    a = A.alpha.images
    s = A.antipode
    u = A.unit
    r = range(A.n)
    witnesses = (
        ("algebra-assoc",
         ((g, h, k) for g in r for h in r for k in r if t[a[g]][t[h][k]] != t[t[g][h]][a[k]])),
        ("algebra-unit",
         [(u,)] if a[u] != u else ((g,) for g in r if t[g][u] != a[g] or t[u][g] != a[g])),
        ("antipode", ((g,) for g in r if t[s[g]][g] != u or t[g][s[g]] != u)),
        ("antipode-unit", [(u,)] if s[u] != u else []),
    )
    violations = []
    for tag, found in witnesses:
        hit = next(iter(found), None)
        if hit is not None:
            violations.append((tag, hit))
    return AxiomReport.from_violations(violations)


def is_commutative(A: GroupHopfAlgebra) -> bool:
    """Commutative exactly when the underlying Hom-group is abelian."""
    return A.product.is_symmetric()


def is_cocommutative(A: GroupHopfAlgebra) -> bool:
    n = A.n
    for g in range(n):
        t = A.coproduct_of(FormalElement.basis(g))
        flipped = FormalTensor(2, {(b, a): c for (a, b), c in t.coeffs.items()})
        if flipped != t:
            return False
    return True


def sub_hopf_dims(G: HomGroup) -> list[int]:
    """Dimensions of basis-aligned Hopf subobjects of the span of G.

    These are exactly the sizes of Hom-subgroups of G; every dimension
    must divide the carrier size, and a failure raises since it would
    contradict the coset partition.
    """
    dims = sorted({len(H) for H in enumerate_hom_subgroups(G)})
    for d in dims:
        if G.n % d != 0:
            raise AssertionError(f"dimension {d} does not divide {G.n}")
    return dims


def center_hopf_dim(G: HomGroup) -> int:
    """Dimension of the span of the center; divides the carrier size."""
    d = len(center(G))
    if G.n % d != 0:
        raise AssertionError(f"center dimension {d} does not divide {G.n}")
    return d
