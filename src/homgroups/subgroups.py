"""Hom-subgroups, cosets, Lagrange partitions, center and centralizers.

Subgroups are found inside the Hom-group itself: the closure under the
product of any set holding the unit is a Hom-subgroup, so the subgroup
list is built by joining the closures of single twist orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .core import HomGroup, Side, _check_index


@dataclass(frozen=True)
class SubsetHandle:
    """Subset of a Hom-group's carrier with bitmask semantics."""

    parent: HomGroup
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", _as_members(self.parent, self.members))

    @property
    def bitmask(self) -> int:
        mask = 0
        for i in self.members:
            mask |= 1 << i
        return mask

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __repr__(self) -> str:
        return format_subset(self.members)


@dataclass(frozen=True)
class Coset:
    parent: HomGroup
    subgroup: SubsetHandle
    representative: int
    side: Side
    members: frozenset[int]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


SubsetLike = Union[SubsetHandle, Iterable[int]]


def format_subset(members: Iterable[int]) -> str:
    """The members in increasing order, written {a,b,c}."""
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


def _as_members(G: HomGroup, S: SubsetLike) -> frozenset[int]:
    members = frozenset(S.members if isinstance(S, SubsetHandle) else S)
    bad = [i for i in members if type(i) is not int or not 0 <= i < G.n]
    if bad:
        wrong = [i for i in bad if type(i) is not int]
        if wrong:
            raise ValueError(f"non-integer members: {wrong!r}")
        raise ValueError(f"members outside carrier: {sorted(bad)}")
    return members


def subgroup_defect(G: HomGroup, S: SubsetLike) -> Optional[str]:
    """Why S fails to be a Hom-subgroup, or None if it is one.

    A Hom-subgroup must contain the unit, be closed under the product and
    under inversion, and be stable under the twist.  By the argument of
    _closure the first two imply the others, so only they are tested; the
    first failure is reported, with a concrete witness in the message.
    """
    members = _as_members(G, S)
    if not members:
        raise ValueError("empty subset")
    if G.unit not in members:
        return f"unit {G.unit} not in subset"
    t = G.table.entries
    for a in sorted(members):
        for b in sorted(members):
            if t[a][b] not in members:
                return f"not closed under product: {a}*{b} = {t[a][b]} escapes"
    return None


def is_hom_subgroup(G: HomGroup, S: SubsetLike) -> bool:
    """True iff S carries the inherited Hom-group structure.

    Twist stability follows from twist closure because the carrier is
    finite and the twist injective, so closure is all that is checked.
    """
    return subgroup_defect(G, S) is None


def _closure(t: Sequence[Sequence[int]], unit: int, seed: Iterable[int]) -> frozenset[int]:
    """The least set containing the unit and seed that is closed under *.

    That set is a Hom-subgroup.  It is twist-stable, since unit*x =
    alpha(x).  It holds every inverse: for x in it, the row of x
    restricted to the set is injective, because rows of a Hom-group table
    are, and maps the finite set into itself, so it is onto; some y in the
    set has x*y = unit, and y is the inverse of x.
    """
    members = {unit, *seed}
    todo = list(members)
    done: list[int] = []
    while todo:
        x = todo.pop()
        done.append(x)
        row = t[x]
        for y in done:
            for z in (row[y], t[y][x]):
                if z not in members:
                    members.add(z)
                    todo.append(z)
    return frozenset(members)


def enumerate_hom_subgroups(G: HomGroup) -> list[SubsetHandle]:
    """All Hom-subgroups, sorted by (size, bitmask).

    A Hom-subgroup is a union of twist orbits, and it contains the
    closure of each orbit it meets.  So the atoms are the closures of
    the single non-unit orbits, and every Hom-subgroup is the closure of
    the union of the atoms it contains.  Starting from the trivial
    subgroup, each subgroup found is joined with each atom it does not
    contain, until no new subgroup appears: the search visits subgroups,
    never the 2^orbits unions of orbits.
    """
    t = G.table.entries
    unit = G.unit
    atoms = {_closure(t, unit, c) for c in G.alpha.cycles() if unit not in c}
    trivial = frozenset((unit,))
    found = {trivial}
    todo = [trivial]
    while todo:
        H = todo.pop()
        for A in atoms:
            if not A <= H:
                J = _closure(t, unit, H | A)
                if J not in found:
                    found.add(J)
                    todo.append(J)
    handles = [SubsetHandle(G, members) for members in found]
    handles.sort(key=lambda h: (len(h), h.bitmask))
    return handles


def _checked_subgroup(G: HomGroup, H: SubsetLike, side: Side) -> SubsetHandle:
    """H as a handle, once side and H have passed their checks.

    A rejected H is named with its members as given, repeats included.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    given = H.sorted_members() if isinstance(H, SubsetHandle) else tuple(H)
    defect = subgroup_defect(G, given)
    if defect is not None:
        raise ValueError(f"subset {format_subset(given)} is not a Hom-subgroup: {defect}")
    return H if isinstance(H, SubsetHandle) else SubsetHandle(G, frozenset(given))


def _coset(G: HomGroup, sub: SubsetHandle, g: int, side: Side) -> Coset:
    """The coset of a checked Hom-subgroup at the representative g."""
    _check_index(G, g)
    members = sub.members
    t = G.table.entries
    if side == "left":
        result = frozenset(t[g][h] for h in members)
    else:
        result = frozenset(t[h][g] for h in members)
    if len(result) != len(members):
        raise AssertionError(f"coset size {len(result)} != subgroup size {len(members)}")
    return Coset(parent=G, subgroup=sub, representative=g, side=side, members=result)


def coset(G: HomGroup, H: SubsetLike, g: int, side: Side = "left") -> Coset:
    """The coset g*H (left) or H*g (right); always the same size as H."""
    return _coset(G, _checked_subgroup(G, H, side), g, side)


def coset_partition(G: HomGroup, H: SubsetLike, side: Side = "left") -> list[Coset]:
    """The distinct cosets of H, which partition the carrier.

    Scans representatives in increasing order and keeps the first
    generator of each distinct block, so the output is deterministic.
    An element need not lie in its own coset here, but g*H and H*g both
    contain g*unit = unit*g = alpha(g).  So a representative whose
    alpha(g) is already covered meets a kept block, and equals it since
    cosets are disjoint or equal; only the others are formed.
    """
    sub = _checked_subgroup(G, H, side)
    a = G.alpha.images
    blocks: list[Coset] = []
    covered: set[int] = set()
    for g in range(G.n):
        if a[g] in covered:
            continue
        c = _coset(G, sub, g, side)
        if covered & c.members:
            raise AssertionError("cosets overlap")
        covered |= c.members
        blocks.append(c)
    if covered != set(range(G.n)):
        raise AssertionError("cosets do not cover the carrier")
    size = len(blocks[0].members)
    if len(blocks) * size != G.n:
        raise AssertionError("coset count times size != carrier size")
    return blocks


@dataclass(frozen=True)
class LagrangeEntry:
    subgroup: SubsetHandle
    order: int
    index: int


@dataclass(frozen=True)
class LagrangeReport:
    parent: HomGroup
    entries: tuple[LagrangeEntry, ...]

    @property
    def divisors(self) -> tuple[int, ...]:
        return tuple(sorted({e.order for e in self.entries}))


def lagrange_check(G: HomGroup) -> LagrangeReport:
    """Divisibility and partition audit over every Hom-subgroup.

    For each Hom-subgroup H: |H| must divide |G|, and the left and right
    coset partitions must tile the carrier exactly with blocks of size
    |H|.  Any failure raises, since it would be an implementation defect;
    the report lists (|H|, |G|/|H|) per subgroup.
    """
    entries = []
    for H in enumerate_hom_subgroups(G):
        if G.n % len(H) != 0:
            raise AssertionError(f"|H| = {len(H)} does not divide |G| = {G.n}")
        for side in ("left", "right"):
            for block in coset_partition(G, H, side):
                if len(block) != len(H):
                    raise AssertionError("coset size mismatch")
        entries.append(LagrangeEntry(subgroup=H, order=len(H), index=G.n // len(H)))
    return LagrangeReport(parent=G, entries=tuple(entries))


def center(G: HomGroup) -> SubsetHandle:
    """Elements commuting with the whole carrier; always a Hom-subgroup."""
    t = G.table.entries
    members = frozenset(
        x for x in range(G.n) if all(t[x][y] == t[y][x] for y in range(G.n))
    )
    handle = SubsetHandle(G, members)
    defect = subgroup_defect(G, handle)
    if defect is not None:
        raise AssertionError(f"center failed subgroup closure: {defect}")
    return handle


def centralizer(G: HomGroup, x: int) -> SubsetHandle:
    """Elements commuting with x.

    Unlike the center, the commuting set of a single element need not be
    closed under the product when the twist moves x, so the result is not
    always a Hom-subgroup; use is_hom_subgroup to test the returned set.
    """
    _check_index(G, x)
    t = G.table.entries
    members = frozenset(g for g in range(G.n) if t[g][x] == t[x][g])
    return SubsetHandle(G, members)


@dataclass(frozen=True)
class CauchyEntry:
    prime: int
    witness: Optional[SubsetHandle]


@dataclass(frozen=True)
class CauchyReport:
    parent: HomGroup
    entries: tuple[CauchyEntry, ...]


def _prime_divisors(n: int) -> list[int]:
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def cauchy_search(G: HomGroup) -> CauchyReport:
    """For each prime p dividing |G|, look for a Hom-subgroup of order p.

    Exhaustive over the subgroup list; reports a witness subset or a
    definitive absence per prime.  Pure explorer: no claim is made beyond
    what the search finds.
    """
    subgroups = enumerate_hom_subgroups(G)
    entries = []
    for p in _prime_divisors(G.n):
        witness = next((H for H in subgroups if len(H) == p), None)
        entries.append(CauchyEntry(prime=p, witness=witness))
    return CauchyReport(parent=G, entries=tuple(entries))
