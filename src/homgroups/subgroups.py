"""Hom-subgroups, cosets, Lagrange partitions, center and centralizers.

A Hom-subgroup is an alpha-invariant subgroup of the untwisted group
g.h = alpha^-1(g*h), so it is generated by one element of each twist
orbit it meets.  The subgroup list is built by cyclic extension with the
generator walk core._closure: each subgroup is built once, from its
greedy tuple of orbit-firsts, by extending its parent by one element.
A Hom-subgroup of prime order is the closure of any of its non-unit
elements, so cauchy_search takes one closure per twist orbit and builds
no list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core import HomGroup, Side, _check_index, _closure, _prime_divisors


@dataclass(frozen=True)
class SubsetHandle:
    """Subset of a Hom-group's carrier with bitmask semantics.

    A handle holds only its members.  The library builds handles from
    subsets it has computed; the entry points that take a caller's subset,
    subgroup_defect and the coset functions, range-check its members.
    """

    members: frozenset[int]

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
    representative: int
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
    under inversion, and be stable under the twist.  The first two imply
    the others, so only they are tested.  A closed set S holding the unit
    is twist-stable, since unit*x = alpha(x).  It holds every inverse: for
    x in S, the row of x restricted to S is injective, because rows of a
    Hom-group table are, and maps the finite set S into itself, so it is
    onto; some y in S has x*y = unit, and y is the inverse of x.  The
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


def enumerate_hom_subgroups(G: HomGroup) -> list[SubsetHandle]:
    """All Hom-subgroups, sorted by (size, bitmask).

    Let firsts be the least elements of the non-unit twist orbits, in
    increasing order.  A Hom-subgroup is twist-stable, so it holds an orbit
    exactly when it holds that orbit's first.  The greedy tuple of a
    Hom-subgroup K lists, one at a time, the least orbit-first of K outside
    the _closure of the entries before it, until that closure is K.

    - It is increasing: each entry is the least orbit-first in a subset of
      the set the entry before was least in, and that entry is not in the
      subset, as the closure now holds it.
    - Each prefix is the greedy tuple of its own closure C: C lies in K, so
      each entry, the least orbit-first of K outside the closure before
      it, is also the least of C outside that closure.

    So each Hom-subgroup K is built once, from the record of its parent,
    the closure of its tuple without the last entry.  A subgroup H is
    recorded with its greedy tuple and the index in firsts just past that
    tuple's last entry, and it is extended only by x = firsts[i] with i
    from that index on and x not in H.  The join J = _closure(H's tuple and
    x) is kept exactly when no orbit-first before x lies in J but not in H,
    that is, when J's greedy tuple is H's tuple and x.  For if none does,
    the entries of H's tuple lie below x, so each stays the least outside
    its closure, and then x is the least outside H; and if one does, an
    orbit-first below x comes next instead.  Every record thus holds its
    subgroup's greedy tuple, each parent is extended by each x once, and K
    is kept from its parent by its last entry, so the list is complete and
    has no repeats.  A walk costs O(|J|(k+1)) for k generators, and the
    search visits subgroups, never the 2^orbits unions of orbits.
    """
    t = G.table.entries
    unit = G.unit
    firsts = [c[0] for c in G.alpha.cycles() if unit not in c]
    found = [(frozenset((unit,)), (), 0)]
    for H, gens, start in found:
        for i in range(start, len(firsts)):
            x = firsts[i]
            if x not in H:
                J = _closure(t, unit, (*gens, x))
                if not any(y in J and y not in H for y in firsts[:i]):
                    found.append((J, (*gens, x), i + 1))
    handles = [SubsetHandle(H) for H, _, _ in found]
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
    return H if isinstance(H, SubsetHandle) else SubsetHandle(frozenset(given))


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
    return Coset(representative=g, members=result)


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
    entries: tuple[LagrangeEntry, ...]

    @property
    def divisors(self) -> tuple[int, ...]:
        return tuple(sorted({e.order for e in self.entries}))


def lagrange_check(G: HomGroup) -> LagrangeReport:
    """Divisibility and partition audit over every Hom-subgroup.

    For each Hom-subgroup H the left and right coset partitions are
    formed, and coset_partition checks that each tiles the carrier with
    blocks of size |H|, so |H| divides |G|.  Any failure raises, since it
    would be an implementation defect; the report lists (|H|, |G|/|H|)
    per subgroup.
    """
    entries = []
    for H in enumerate_hom_subgroups(G):
        for side in ("left", "right"):
            coset_partition(G, H, side)
        entries.append(LagrangeEntry(subgroup=H, order=len(H), index=G.n // len(H)))
    return LagrangeReport(tuple(entries))


def center(G: HomGroup) -> SubsetHandle:
    """Elements commuting with the whole carrier; always a Hom-subgroup."""
    t = G.table.entries
    members = frozenset(
        x for x in range(G.n) if all(t[x][y] == t[y][x] for y in range(G.n))
    )
    handle = SubsetHandle(members)
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
    return SubsetHandle(members)


@dataclass(frozen=True)
class CauchyEntry:
    prime: int
    witness: Optional[SubsetHandle]


@dataclass(frozen=True)
class CauchyReport:
    entries: tuple[CauchyEntry, ...]


def cauchy_search(G: HomGroup) -> CauchyReport:
    """For each prime p dividing |G|, the least Hom-subgroup of order p
    by bitmask, or None when there is none.

    No subgroup lattice is built: the Hom-subgroups of prime order are
    exactly the closures of single elements that have that size.  Let H
    be a Hom-subgroup of order p and x a non-unit element of H.  Then
    _closure(x), the least Hom-subgroup holding x, lies in H and has at
    least two elements, and its size divides p by Lagrange, so it is H.
    Conversely every closure is a Hom-subgroup, so a closure of size p is
    one of order p.  A closure is twist-stable, so _closure(x) depends
    only on the twist orbit of x, and one walk per orbit finds them all.
    """
    t = G.table.entries
    closures = [SubsetHandle(_closure(t, G.unit, (c[0],))) for c in G.alpha.cycles()]
    entries = []
    for p in _prime_divisors(G.n):
        sized = [H for H in closures if len(H) == p]
        witness = min(sized, key=lambda H: H.bitmask, default=None)
        entries.append(CauchyEntry(prime=p, witness=witness))
    return CauchyReport(tuple(entries))
