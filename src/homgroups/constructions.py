"""Build Hom-groups: twisted groups, products, automorphisms, stock tables.

Automorphisms and isomorphisms come from one backtracking search, since an
automorphism is an isomorphism of a structure with itself.
"""

from __future__ import annotations

import re
from typing import Iterator

from .core import (
    FiniteGroup,
    HomGroup,
    InvalidStructureError,
    Permutation,
    PermLike,
    _as_perm,
    _check_index,
    _multiplicativity_witness,
    verify,
)


class NotAutomorphismError(ValueError):
    """Twisting map fails multiplicativity; witness is a pair (g, k)."""

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        g, k = witness
        super().__init__(f"map is not an automorphism: image of {g}*{k} differs")


def cyclic_group(n: int) -> FiniteGroup:
    """Additive cyclic group of order n on {0..n-1}."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(table, unit=0, labels=[str(i) for i in range(n)])


def _rot_label(i: int, flip: bool) -> str:
    if i == 0:
        return "s" if flip else "1"
    power = "r" if i == 1 else f"r^{i}"
    return power + ("s" if flip else "")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n.

    Elements are ordered 1, r, r^2, ..., r^(n-1), s, rs, r^2 s, ... with
    the relations r^n = s^2 = 1 and s r = r^-1 s.
    """
    if n < 1:
        raise ValueError(f"rotation order must be >= 1, got {n}")

    def prod(a: int, b: int) -> int:
        i, e = a % n, a // n
        j, f = b % n, b // n
        k = (i - j) % n if e else (i + j) % n
        return k + n * (e ^ f)

    m = 2 * n
    table = tuple(tuple(prod(a, b) for b in range(m)) for a in range(m))
    labels = [_rot_label(i, False) for i in range(n)] + [_rot_label(i, True) for i in range(n)]
    return FiniteGroup(table, unit=0, labels=labels)


def is_automorphism(G: FiniteGroup, f: PermLike) -> bool:
    """True iff f is a multiplicative bijection of G (hence unit-fixing)."""
    f = _as_perm(f)
    if len(f) != G.n:
        return False
    return _multiplicativity_witness(G.table.entries, f.images) is None


def _isomorphisms(G: HomGroup, H: HomGroup) -> Iterator[Permutation]:
    """Every isomorphism from G to H, in lexicographic order of images.

    An isomorphism is a bijection f with f(g*k) = f(g)*f(k) that carries
    G's twist to H's, f(alpha(g)) = beta(f(g)); it sends unit to unit.
    Twist cycle types are compared first as a cheap rejection.  Images are
    assigned from the unit on, and each one propagates along the twist,
    the inverse and every product with an element already placed.  The
    search extends the least unplaced element with ascending images, so
    the maps come out in lexicographic order and the first is the least.
    """
    n = G.n
    if H.n != n or G.alpha.cycle_type() != H.alpha.cycle_type():
        return
    ta, tb = G.table.entries, H.table.entries
    aa, ab = G.alpha.images, H.alpha.images
    ia, ib = G.inverses, H.inverses
    f = [-1] * n
    used = [False] * n

    def assign(a: int, b: int, trail: list[int]) -> bool:
        if f[a] != -1:
            return f[a] == b
        if used[b]:
            return False
        f[a] = b
        used[b] = True
        trail.append(a)
        if not assign(aa[a], ab[b], trail):
            return False
        if not assign(ia[a], ib[b], trail):
            return False
        for x in range(n):
            fx = f[x]
            if fx == -1:
                continue
            if not assign(ta[a][x], tb[b][fx], trail):
                return False
            if not assign(ta[x][a], tb[fx][b], trail):
                return False
        return True

    def undo(trail: list[int]) -> None:
        for a in reversed(trail):
            used[f[a]] = False
            f[a] = -1

    def extend() -> Iterator[Permutation]:
        if -1 not in f:
            yield Permutation(tuple(f))
            return
        a = f.index(-1)
        for b in range(n):
            if used[b]:
                continue
            trail: list[int] = []
            if assign(a, b, trail):
                yield from extend()
            undo(trail)

    if assign(G.unit, H.unit, []):
        yield from extend()


def automorphisms_of(G: HomGroup) -> list[Permutation]:
    """All automorphisms of G, sorted by image sequence.

    For a group these are its group automorphisms; for a twisted structure
    they are the automorphisms of its untwisted group that commute with
    the twist.
    """
    return list(_isomorphisms(G, G))


def inner_automorphism(G: FiniteGroup, s: int) -> Permutation:
    """Conjugation x -> (s*x)*s^-1."""
    _check_index(G, s)
    t = G.table.entries
    s_inv = G.inverses[s]
    return Permutation(tuple(t[t[s][x]][s_inv] for x in range(G.n)))


def twist(G: FiniteGroup, alpha: PermLike) -> HomGroup:
    """Twist a group's multiplication by one of its automorphisms.

    The twisted product is alpha(g*k); the result is a Hom-group with the
    same unit and twist alpha.  A non-automorphism is rejected with the
    first witness pair where multiplicativity fails.

    A group twisted by an automorphism is always a Hom-group (the proof is
    in the classify module), and the twisted product alpha(g*x) is the unit
    exactly when g*x is, so the result keeps G's inverses and is built
    without running verify again.  The proof needs G to be a group: if G's
    own twist is not the identity, the twisted table is checked and
    rejected with InvalidStructureError, as the HomGroup constructor would
    reject it.
    """
    alpha = _as_perm(alpha)
    if len(alpha) != G.n:
        raise ValueError(f"twist length {len(alpha)} != carrier size {G.n}")
    witness = _multiplicativity_witness(G.table.entries, alpha.images)
    if witness is not None:
        raise NotAutomorphismError(witness)
    im = alpha.images
    twisted = tuple(tuple(map(im.__getitem__, row)) for row in G.table.entries)
    if not G.alpha.is_identity:
        raise InvalidStructureError(verify(twisted, alpha, G.unit))
    return HomGroup._from_verified(twisted, alpha, G.unit, G.labels, G.inverses)


def direct_product(G: HomGroup, H: HomGroup) -> HomGroup:
    """Componentwise product on pairs, encoded row-major as i*|H| + j."""
    tg, th = G.table.entries, H.table.entries
    ag, ah = G.alpha.images, H.alpha.images
    m = H.n
    size = G.n * m

    def enc(i: int, j: int) -> int:
        return i * m + j

    table = [[0] * size for _ in range(size)]
    for i in range(G.n):
        for j in range(m):
            row = table[enc(i, j)]
            for i2 in range(G.n):
                ti = tg[i][i2]
                for j2 in range(m):
                    row[enc(i2, j2)] = enc(ti, th[j][j2])
    alpha = tuple(enc(ag[i], ah[j]) for i in range(G.n) for j in range(m))
    labels = None
    if G.labels is not None and H.labels is not None:
        labels = [f"({G.labels[i]},{H.labels[j]})" for i in range(G.n) for j in range(m)]
    return HomGroup(table, alpha, unit=enc(G.unit, H.unit), labels=labels)


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


_GROUP_PATTERN = re.compile(r"^group:(zn|dn)\((\d+)\)$")


def fixture(name: str) -> HomGroup:
    """Stock structures by name.

    Hom-groups: 'z3a' (order 3), 'z6a', 'd3a', 'z5a'.  Plain groups:
    'group:zn(k)' and 'group:dn(k)'.
    """
    if name == "z3a":
        return _hom_fixture(_Z3A_TABLE, ("1", "a", "b"))
    if name == "z6a":
        return _hom_fixture(_Z6A_TABLE, tuple(str(i) for i in range(6)))
    if name == "z5a":
        return _hom_fixture(_Z5A_TABLE, tuple(str(i) for i in range(5)))
    if name == "d3a":
        return _hom_fixture(_D3A_TABLE, _D3A_LABELS)
    m = _GROUP_PATTERN.match(name)
    if m:
        kind, k = m.group(1), int(m.group(2))
        return cyclic_group(k) if kind == "zn" else dihedral_group(k)
    raise ValueError(f"unknown fixture name: {name!r}")
