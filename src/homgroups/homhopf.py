"""Linearization of a Hom-group into its group Hopf algebra.

The span of the carrier over an abstract field carries a product from the
Cayley table, the diagonal coproduct, the constant-one counit, inversion
as antipode, and the pair of twists (alpha, identity).  Only the data
that varies is stored: the table, the unit, the antipode and alpha; the
coproduct, counit and cotwist are the same for every table.  Every
structure map sends basis elements to basis elements or basis tensors, so
each Hopf identity holds as an identity of linear maps exactly when it
holds on basis inputs; coefficients never leave the integers 0 and 1.

verify_hom_hopf therefore checks the axioms on the Cayley table, the
twist and the inversion map.  The twisted associativity and unit laws are
the Hom-group axioms of that table, so they are read off core.verify,
which alone decides when Light's test may certify associativity; only the
two antipode laws are checked here.  FormalElement and FormalTensor are
the linear extension of the structure maps to arbitrary integer
combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .core import AxiomReport, CayleyTable, HomGroup, Permutation, _as_perm, _as_table
from .core import _check_index, verify
from .subgroups import center, enumerate_hom_subgroups


class _SparseSum:
    """Sparse integer combination of basis keys; zeros are not stored.

    Results are built with _like(coeffs), which keeps the type and rank of
    the sum it is called on.  Their keys come from keys already checked or
    from the structure tables, and sums and products of int coefficients
    are ints, so _like drops zeros but checks nothing; the constructors
    check every key, with the subclass's _check_key, and every coefficient
    they are given, and scale its factor.  Each subclass says with _matches
    which sums it can be added to or equal.
    """

    __slots__ = ("coeffs",)

    def _take(self, coeffs: Union[Mapping, Iterable[tuple]]) -> None:
        cleaned = {}
        for k, v in (coeffs if isinstance(coeffs, dict) else dict(coeffs)).items():
            self._check_key(k)
            # 0.5 would make the sum inexact, and True is a bool posing as 1.
            if type(v) is not int:
                raise ValueError(f"coefficient {v!r} is not an int")
            if v != 0:
                cleaned[k] = v
        self.coeffs = cleaned

    def _like(self, coeffs: dict) -> "_SparseSum":
        out = object.__new__(type(self))
        out.coeffs = {k: v for k, v in coeffs.items() if v != 0}
        return out

    def _matches(self, other: "_SparseSum") -> bool:
        return type(other) is type(self)

    def scale(self, c: int) -> "_SparseSum":
        if type(c) is not int:
            raise ValueError(f"coefficient {c!r} is not an int")
        return self._like({k: c * v for k, v in self.coeffs.items()})

    def __add__(self, other: "_SparseSum") -> "_SparseSum":
        if not isinstance(other, _SparseSum):
            return NotImplemented
        if not self._matches(other):
            raise ValueError("rank mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return self._like(out)

    def __sub__(self, other: "_SparseSum") -> "_SparseSum":
        if not isinstance(other, _SparseSum):
            return NotImplemented
        return self + other.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SparseSum):
            return NotImplemented
        return self._matches(other) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*e{k}" for k, v in sorted(self.coeffs.items()))


class FormalElement(_SparseSum):
    """Sparse integer combination of basis indices; zeros are not stored.

    Each key must be an int >= 0 and each coefficient an int, or ValueError
    is raised; an index past the carrier raises IndexError when a structure
    map reads it.
    """

    __slots__ = ()

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        self._take(coeffs)

    def _check_key(self, k: int) -> None:
        # True == 1, and a negative index would wrap round a table row.
        if type(k) is not int or k < 0:
            raise ValueError(f"basis index {k!r} is not an int >= 0")

    @classmethod
    def basis(cls, i: int) -> "FormalElement":
        return cls({i: 1})

    @classmethod
    def zero(cls) -> "FormalElement":
        return cls()


class FormalTensor(_SparseSum):
    """Sparse integer combination of basis index tuples of a fixed rank.

    The rank must be an int >= 0, each key a tuple of rank ints >= 0 and
    each coefficient an int, or ValueError is raised.
    """

    __slots__ = ("rank",)

    def __init__(
        self,
        rank: int,
        coeffs: Union[Mapping[tuple[int, ...], int], Iterable[tuple[tuple[int, ...], int]]] = (),
    ):
        if type(rank) is not int or rank < 0:
            raise ValueError(f"rank {rank!r} is not an int >= 0")
        self.rank = rank
        self._take(coeffs)

    def _check_key(self, k: tuple[int, ...]) -> None:
        if type(k) is not tuple or len(k) != self.rank:
            raise ValueError(f"key {k!r} is not a tuple of {self.rank} basis indices")
        for i in k:
            if type(i) is not int or i < 0:
                raise ValueError(f"key {k!r} holds {i!r}, not an int >= 0")

    def _like(self, coeffs: dict) -> "FormalTensor":
        out = super()._like(coeffs)
        out.rank = self.rank
        return out

    def _matches(self, other: _SparseSum) -> bool:
        return type(other) is FormalTensor and other.rank == self.rank

    @classmethod
    def basis(cls, key: tuple[int, ...]) -> "FormalTensor":
        return cls(len(key), {tuple(key): 1})


@dataclass(frozen=True)
class GroupHopfAlgebra:
    """Basis-presented Hopf structure on the span of a Hom-group.

    Structure maps act on basis indices: the product via the Cayley
    table, the coproduct diagonally, the counit as the constant 1, the
    antipode via the inversion table.  The twist pair is (alpha, id): the
    algebra twist alpha is stored, and the coalgebra twist is the
    identity, so cotwist_of returns its argument.  A product or twist
    given as plain sequences is converted, and bad data raises ValueError.
    """

    product: CayleyTable
    unit: int
    antipode: tuple[int, ...]
    alpha: Permutation

    def __post_init__(self):
        object.__setattr__(self, "product", _as_table(self.product))
        object.__setattr__(self, "alpha", _as_perm(self.alpha))
        n = self.product.n
        object.__setattr__(self, "antipode", tuple(self.antipode))
        if len(self.antipode) != n:
            raise ValueError("antipode table length mismatch")
        for i, v in enumerate(self.antipode):
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"antipode[{i}] = {v!r} outside 0..{n - 1}")
        if len(self.alpha) != n:
            raise ValueError("twist length mismatch")
        _check_index(self.unit, n, "unit")

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
        return x._like(out)

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
        return x._like(out)

    def coproduct_of(self, x: FormalElement) -> FormalTensor:
        return FormalTensor(2)._like({(i, i): c for i, c in x.coeffs.items()})

    def counit_of(self, x: FormalElement) -> int:
        return sum(x.coeffs.values())

    def antipode_of(self, x: FormalElement) -> FormalElement:
        out: dict[int, int] = {}
        for i, c in x.coeffs.items():
            k = self.antipode[i]
            out[k] = out.get(k, 0) + c
        return x._like(out)

    def twist_of(self, x: FormalElement) -> FormalElement:
        return x._like({self.alpha.images[i]: c for i, c in x.coeffs.items()})

    def cotwist_of(self, x: FormalElement) -> FormalElement:
        return FormalElement(x.coeffs)


def build_group_hopf(G: HomGroup) -> GroupHopfAlgebra:
    """Populate the structure maps of the span of G from its table."""
    return GroupHopfAlgebra(product=G.table, unit=G.unit, antipode=G.inverses, alpha=G.alpha)


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

    The two algebra laws are the Hom-group axioms of the same table, twist
    and unit, so they are read off one core.verify report: algebra-assoc
    is its hom-associativity witness, and algebra-unit is (u,) when
    unit-fixed is reported, else the least of the unit-row and unit-col
    witnesses.  Only the antipode laws are checked here, since the antipode
    is data that the table does not fix.

    The other eight identities (coassociativity, counit, coproduct-product,
    coproduct-unit, counit-product, counit-unit, counit-twist and
    antipode-counit) hold for every table, twist and antipode, so they have
    no runtime check: the coproduct g -> g (x) g is diagonal and
    multiplicative, the counit is constantly 1, and the cotwist is the
    identity.
    """
    t = A.product.entries
    s = A.antipode
    u = A.unit
    laws = dict(verify(A.product, A.alpha, u).violations)
    unit_lines = [laws[tag] for tag in ("unit-row", "unit-col") if tag in laws]
    unit_hit = (u,) if "unit-fixed" in laws else min(unit_lines, default=None)
    witnesses = (
        ("algebra-assoc", laws.get("hom-associativity")),
        ("algebra-unit", unit_hit),
        ("antipode", next(((g,) for g in range(A.n) if t[s[g]][g] != u or t[g][s[g]] != u), None)),
        ("antipode-unit", (u,) if s[u] != u else None),
    )
    return AxiomReport(tuple((tag, hit) for tag, hit in witnesses if hit is not None))


def is_commutative(A: GroupHopfAlgebra) -> bool:
    """Commutative exactly when the underlying Hom-group is abelian."""
    return A.product.is_symmetric()


def is_cocommutative(A: GroupHopfAlgebra) -> bool:
    """Always true: the flip fixes the diagonal coproduct g -> g (x) g."""
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
