"""Hom-subgroups, cosets, Lagrange partitions, center and centralizers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

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
        return "{" + ",".join(str(i) for i in self.sorted_members()) + "}"


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
    under inversion, and be stable under the twist.  The first failing
    closure is reported, with a concrete witness in the message.
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
    for a in sorted(members):
        if G.inverses[a] not in members:
            return f"not closed under inversion: {a}^-1 = {G.inverses[a]} escapes"
    for a in sorted(members):
        if G.alpha(a) not in members:
            return f"not stable under twist: alpha({a}) = {G.alpha(a)} escapes"
    return None


def is_hom_subgroup(G: HomGroup, S: SubsetLike) -> bool:
    """True iff S carries the inherited Hom-group structure.

    Twist stability follows from twist closure because the carrier is
    finite and the twist injective, so closure is all that is checked.
    """
    return subgroup_defect(G, S) is None


def enumerate_hom_subgroups(G: HomGroup) -> list[SubsetHandle]:
    """All Hom-subgroups, sorted by (size, bitmask).

    Only twist-stable, unit-containing subsets can qualify, so candidates
    are unions of twist orbits together with the unit's orbit; each is
    then tested for product and inverse closure.
    """
    orbits = [c for c in G.alpha.cycles() if G.unit not in c]
    found: list[SubsetHandle] = []
    for pick in range(1 << len(orbits)):
        members = {G.unit}
        for i, orbit in enumerate(orbits):
            if pick >> i & 1:
                members.update(orbit)
        if subgroup_defect(G, members) is None:
            found.append(SubsetHandle(G, frozenset(members)))
    found.sort(key=lambda h: (len(h), h.bitmask))
    return found


def coset(G: HomGroup, H: SubsetLike, g: int, side: Side = "left") -> Coset:
    """The coset g*H (left) or H*g (right); always the same size as H."""
    _check_index(G, g)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    defect = subgroup_defect(G, H)
    if defect is not None:
        raise ValueError(f"not a Hom-subgroup: {defect}")
    members = _as_members(G, H)
    t = G.table.entries
    if side == "left":
        result = frozenset(t[g][h] for h in members)
    else:
        result = frozenset(t[h][g] for h in members)
    if len(result) != len(members):
        raise AssertionError(f"coset size {len(result)} != subgroup size {len(members)}")
    sub = H if isinstance(H, SubsetHandle) else SubsetHandle(G, members)
    return Coset(parent=G, subgroup=sub, representative=g, side=side, members=result)


def coset_partition(G: HomGroup, H: SubsetLike, side: Side = "left") -> list[Coset]:
    """The distinct cosets of H, which partition the carrier.

    Scans representatives in increasing order and keeps the first
    generator of each distinct block, so the output is deterministic.
    An element need not lie in its own coset here (g*H contains alpha(g),
    not necessarily g), so blocks are deduplicated by value rather than
    by covering.
    """
    blocks: list[Coset] = []
    seen: set[frozenset[int]] = set()
    for g in range(G.n):
        c = coset(G, H, g, side)
        if c.members not in seen:
            seen.add(c.members)
            blocks.append(c)
    covered: set[int] = set()
    for c in blocks:
        if covered & c.members:
            raise AssertionError("cosets overlap")
        covered |= c.members
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
