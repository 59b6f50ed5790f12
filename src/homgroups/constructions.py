"""Build Hom-groups: twisted groups, products, automorphisms, stock tables.

Automorphisms and isomorphisms come from one search over the images of a
generating set, since an automorphism is an isomorphism of a structure with
itself: a Hom-group isomorphism is an isomorphism of the untwisted groups
that intertwines the twists, so the images of generators fix it.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterator

from .core import (
    FiniteGroup,
    HomGroup,
    InvalidStructureError,
    Permutation,
    PermLike,
    _as_perm,
    _greedy_generators,
    _multiplicativity_witness,
    inverse_of,
    verify,
)


class NotAutomorphismError(ValueError):
    """Twisting map fails multiplicativity; witness is a pair (g, k)."""

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        g, k = witness
        super().__init__(f"map is not an automorphism: image of {g}*{k} differs")


def cyclic_group(n: int) -> FiniteGroup:
    """Additive cyclic group of order n on {0..n-1}.

    Row i is the rotation of 0..n-1 that starts at i.  Addition mod n is a
    group law with unit 0, so the table is built without running verify.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"order must be an integer >= 1, got {n!r}")
    r = tuple(range(n))
    table = tuple(r[i:] + r[:i] for i in r)
    labels = tuple(map(str, r))
    return FiniteGroup._from_verified(table, 0, labels)


def _rot_label(i: int, flip: bool) -> str:
    if i == 0:
        return "s" if flip else "1"
    power = "r" if i == 1 else f"r^{i}"
    return power + ("s" if flip else "")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n.

    Elements are ordered 1, r, r^2, ..., r^(n-1), s, rs, r^2 s, ... with
    the relations r^n = s^2 = 1 and s r = r^-1 s, so r^i has index i and
    r^i s index n + i.  Then r^i r^j = r^(i+j), r^i r^j s = r^(i+j) s,
    r^i s r^j = r^(i-j) s and r^i s r^j s = r^(i-j), which give the rows.
    This is the group that the relations present, with unit 1, so the
    table is built without running verify.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"rotation order must be an integer >= 1, got {n!r}")
    r = range(n)
    rotations, reflections = ([tuple((i + e * j) % n for j in r) for i in r] for e in (1, -1))
    flip = lambda row: tuple(k + n for k in row)  # r^k -> r^k s
    table = tuple(x + flip(x) for x in rotations) + tuple(flip(x) + x for x in reflections)
    labels = tuple(_rot_label(i, False) for i in r) + tuple(_rot_label(i, True) for i in r)
    return FiniteGroup._from_verified(table, 0, labels)


def is_automorphism(G: FiniteGroup, f: PermLike) -> bool:
    """True iff f is a multiplicative bijection of G (hence unit-fixing)."""
    f = _as_perm(f)
    return len(f) == G.n and _multiplicativity_witness(G.table.entries, f.images) is None


def _keys(G: HomGroup) -> tuple[list, tuple]:
    """G's (keys, signature), all that an isomorphism search needs of its target.

    keys[x] is (length of x's twist cycle, order of x in the untwisted
    group g.h = alpha^-1(g*h)), and the signature is the sorted key
    multiset.  An isomorphism preserves every key, so structures with
    different signatures are never isomorphic.
    """
    t, unit = G.table.entries, G.unit
    alpha = G.alpha
    a_inv = alpha.inverse().images
    cycle = {x: len(c) for c in alpha.cycles() for x in c}

    def order(x: int) -> int:
        y, m = x, 1
        while y != unit:
            y, m = a_inv[t[y][x]], m + 1
        return m

    keys = [(cycle[x], order(x)) for x in G.elements()]
    return keys, tuple(sorted(keys))


def _profile(G: HomGroup) -> tuple:
    """G's (generators, keys, signature): the generators are
    core._greedy_generators, the ones Light's test picks, and the rest is
    _keys(G)."""
    return (tuple(_greedy_generators(G.table.entries, G.unit)), *_keys(G))


def _isomorphisms(G: HomGroup, H: HomGroup, pg=(), kh=()) -> Iterator[Permutation]:
    """Every isomorphism from G to H, each once, in no promised order.

    An isomorphism is a bijection f with f(g*k) = f(g)*f(k) that carries
    G's twist alpha to H's twist beta, f(alpha(g)) = beta(f(g)).  pg is
    the _profile of G and kh the _keys of H, computed here when left empty.

    The search sets f(unit) to H's unit and picks an image of equal key for
    each generator g_1, ..., g_k of G in turn.  After each pick it extends
    f along the _closure walk x -> x*s for s in (unit, g_1, ..., g_i): it
    sets f(x*s) = f(x)*f(s) at each new element, checks that edge at each
    element already placed, and backtracks on a clash or on an image used
    twice.  A walk that passes every edge reaches all of G, which the
    generators generate, with n distinct images, so f is a bijection.  It
    is an isomorphism, so no separate O(n^2) check of products is needed:
    - The unit edges give f(alpha(x)) = f(x*unit) = f(x)*f(unit)
      = beta(f(x)) for every x.
    - The generator edges then give beta(f(x.g)) = f(x*g) = f(x)*f(g)
      = beta(f(x).f(g)), so f(x.g) = f(x).f(g) in the untwisted groups of
      G and H, for every x and every generator g.
    - The y with f(x.y) = f(x).f(y) for all x form a subgroup that holds
      the generators.  It is alpha-stable: for y in it,
      f(x.alpha(y)) = beta(f(alpha^-1(x).y)) = f(x).f(alpha(y)).  So it
      holds the subgroup generated by the generators' twist orbits,
      which is G, and f(x*y) = f(alpha(x.y)) = beta(f(x).f(y))
      = f(x)*f(y) for all x and y.
    """
    gens, keys_g, signature = pg or _profile(G)
    keys_h, signature_h = kh or _keys(H)
    if signature != signature_h:  # this also compares the orders of G and H
        return
    ta, tb = G.table.entries, H.table.entries
    f, used = [-1] * G.n, [False] * G.n
    members: list[int] = []

    def place(x: int, v: int) -> bool:
        if used[v]:
            return False
        f[x] = v
        used[v] = True
        members.append(x)
        return True

    def walk(i: int, old: int) -> bool:
        # Elements placed before gens[i] take only the new step, the rest every step.
        steps = [(s, f[s]) for s in (G.unit, *gens[: i + 1])]
        for cursor, x in enumerate(members):
            row_a, row_b = ta[x], tb[f[x]]
            for s, fs in steps if cursor >= old else steps[-1:]:
                y, v = row_a[s], row_b[fs]
                if not (place(y, v) if f[y] == -1 else f[y] == v):
                    return False
        return True

    def extend(i: int) -> Iterator[Permutation]:
        if i == len(gens):
            yield Permutation(tuple(f))
            return
        old = len(members)
        for v in (v for v, key in enumerate(keys_h) if key == keys_g[gens[i]]):
            if place(gens[i], v) and walk(i, old):
                yield from extend(i + 1)
            for x in members[old:]:
                used[f[x]], f[x] = False, -1
            del members[old:]

    place(G.unit, H.unit)
    yield from extend(0)


def automorphisms_of(G: HomGroup) -> list[Permutation]:
    """All automorphisms of G, sorted by image sequence.

    For a group these are its group automorphisms; for a twisted structure
    they are the automorphisms of its untwisted group that commute with
    the twist.
    """
    p = _profile(G)
    return sorted(_isomorphisms(G, G, p, p[1:]), key=lambda f: f.images)


def _search_size(G: HomGroup) -> int:
    """The most generator-image tuples automorphisms_of(G) may try: the
    product over G's generators of the number of elements sharing each
    generator's key."""
    gens, keys, _ = _profile(G)
    return math.prod(keys.count(keys[g]) for g in gens)


def inner_automorphism(G: FiniteGroup, s: int) -> Permutation:
    """Conjugation x -> (s*x)*s^-1."""
    s_inv = inverse_of(G, s)
    t = G.table.entries
    return Permutation(tuple(t[t[s][x]][s_inv] for x in range(G.n)))


def twist(G: FiniteGroup, alpha: PermLike) -> HomGroup:
    """Twist a group's multiplication by one of its automorphisms.

    The twisted product is alpha(g*k); the result is a Hom-group with the
    same unit, whose row is alpha, so only the twisted rows are stored.  A
    non-automorphism is rejected with the first witness pair where
    multiplicativity fails.

    A group twisted by an automorphism is always a Hom-group (the proof is
    in the classify module), so the result is built without running verify
    again.  The proof needs G to be a group: if G's own twist is not the
    identity, the twisted table is checked and rejected with
    InvalidStructureError, as the HomGroup constructor would reject it.
    """
    alpha = _as_perm(alpha)
    if len(alpha) != G.n:
        raise ValueError(f"twist length {len(alpha)} != carrier size {G.n}")
    witness = _multiplicativity_witness(G.table.entries, alpha.images)
    if witness is not None:
        raise NotAutomorphismError(witness)
    t = G.table.entries
    # A getter of one index returns a bare item, not a 1-tuple; at n = 1
    # the only twist is the identity, which leaves the table as it is.
    twisted = tuple(itemgetter(*row)(alpha.images) for row in t) if G.n > 1 else t
    if not G.alpha.is_identity:
        raise InvalidStructureError(verify(twisted, alpha, G.unit))
    return HomGroup._from_verified(twisted, G.unit, G.labels)


def direct_product(G: HomGroup, H: HomGroup) -> HomGroup:
    """Componentwise product on pairs, encoded row-major as i*|H| + j.

    Row (i, j) of the table is row i of G paired with row j of H, so the
    twist, the unit's row, is G's twist paired with H's.  Each Hom-group
    axiom holds on pairs because it holds in each factor: a row or column
    of pairs is a pair of bijections, and the unit, twist and associativity
    laws are identities checked componentwise, so the product is built
    without running verify.
    """
    m = H.n

    def pairs(xs: tuple[int, ...], ys: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x * m + y for x in xs for y in ys)

    table = tuple(pairs(rg, rh) for rg in G.table.entries for rh in H.table.entries)
    labels = None
    if G.labels is not None and H.labels is not None:
        labels = tuple(f"({a},{b})" for a in G.labels for b in H.labels)
    return HomGroup._from_verified(table, G.unit * m + H.unit, labels)


# Stock tables, stored literally row by row; the twist is
# the unit row in each case.  Tests cross-check them against the closed
# forms and against twist() applied to the matching group.

_Z3A_TABLE = (
    (0, 2, 1),
    (2, 1, 0),
    (1, 0, 2),
)

_Z6A_TABLE = (
    (0, 5, 4, 3, 2, 1),
    (5, 4, 3, 2, 1, 0),
    (4, 3, 2, 1, 0, 5),
    (3, 2, 1, 0, 5, 4),
    (2, 1, 0, 5, 4, 3),
    (1, 0, 5, 4, 3, 2),
)

_Z5A_TABLE = (
    (0, 2, 4, 1, 3),
    (2, 4, 1, 3, 0),
    (4, 1, 3, 0, 2),
    (1, 3, 0, 2, 4),
    (3, 0, 2, 4, 1),
)

_D3A_TABLE = (
    (0, 2, 1, 3, 5, 4),
    (2, 1, 0, 5, 4, 3),
    (1, 0, 2, 4, 3, 5),
    (3, 4, 5, 0, 1, 2),
    (5, 3, 4, 2, 0, 1),
    (4, 5, 3, 1, 2, 0),
)

_D3A_LABELS = ("1", "r", "r^2", "s", "rs", "sr")


def _hom_fixture(table: tuple[tuple[int, ...], ...], labels) -> HomGroup:
    return HomGroup(table, table[0], unit=0, labels=labels)


def fixture(name: str) -> HomGroup:
    """Stock structures by name.

    Hom-groups: 'z3a' (order 3), 'z6a', 'd3a', 'z5a'.  For plain groups
    call cyclic_group or dihedral_group.
    """
    if name == "z3a":
        return _hom_fixture(_Z3A_TABLE, ("1", "a", "b"))
    if name == "z6a":
        return _hom_fixture(_Z6A_TABLE, tuple(str(i) for i in range(6)))
    if name == "z5a":
        return _hom_fixture(_Z5A_TABLE, tuple(str(i) for i in range(5)))
    if name == "d3a":
        return _hom_fixture(_D3A_TABLE, _D3A_LABELS)
    raise ValueError(f"unknown fixture name: {name!r}")
