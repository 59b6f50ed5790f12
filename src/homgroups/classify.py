"""Exhaustive classification of small Hom-groups, isomorphism, canonical forms.

Every Hom-group is a twisted group.  Let (G, *, alpha, 0) be a Hom-group
with unit 0, so alpha is a bijective, multiplicative twist fixing 0, and
define the untwisted product g.h = alpha^-1(g*h).  Then:

- g.h is associative: (g.h).k = alpha^-2((g*h)*alpha(k))
  = alpha^-2(alpha(g)*(h*k)) = g.(h.k), by twisted associativity;
- 0 is its unit: g.0 = alpha^-1(g*0) = alpha^-1(alpha(g)) = g, and
  likewise 0.g = g;
- alpha is an automorphism of it, since alpha commutes with alpha^-1 and
  is multiplicative for *;
- twisting it back by alpha, g*h = alpha(g.h), returns the table.

Conversely every group with unit 0 twisted by any of its automorphisms
is a Hom-group with unit 0.  So the labeled Hom-groups with unit 0 on
{0..n-1} correspond one to one with the pairs (group table with unit 0,
automorphism of it), and the identity automorphism gives the ordinary
groups.  The enumeration runs the cell-by-cell Latin-square search only
for the identity twist, which finds the group tables, and twists each
table by every automorphism; each emitted structure passes the full
axiom check on construction.

The reduction to isomorphism classes buckets structures by a cheap
isomorphism invariant, tests each against the representatives already
kept in its bucket with the isomorphism search, and computes the
lex-minimal canonical form once per class.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .constructions import automorphisms_of, twist
from .core import FiniteGroup, HomGroup, Permutation, PermLike, _as_perm, power_orbit


class OrderGuardError(ValueError):
    """Requested order exceeds the configured search guard."""


@dataclass(frozen=True)
class SearchConfig:
    order: int
    include_groups: bool = False
    max_order_guard: int = 6

    def __post_init__(self):
        if type(self.order) is not int or self.order < 1:
            raise ValueError(f"order must be an integer >= 1, got {self.order!r}")


class ClassifyStats:
    """What one classification did: counts and seconds per phase.

    Filled in by enumerate_hom_groups (search and twist phases) and
    reduce_to_classes (reduce phase) when passed to them.
    """

    def __init__(self) -> None:
        self.group_tables = 0
        self.automorphisms = 0
        self.structures = 0
        self.bucket_sizes: list[int] = []
        self.isomorphism_calls = 0
        self.canonical_form_calls = 0
        self.search_s = 0.0
        self.twist_s = 0.0
        self.reduce_s = 0.0


def _group_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All group tables on {0..n-1} with unit 0.

    Cells are filled row by row under Latin constraints; a zero in (i,j)
    forces a zero in (j,i), and associativity g*(h*k) = (g*h)*k is
    propagated as soon as the cells an instance mentions are filled,
    forcing the one unknown outer cell when the other side is known.
    """
    T = [[-1] * n for _ in range(n)]
    rowpos = [[-1] * n for _ in range(n)]
    row_mask = [0] * n
    col_mask = [0] * n
    trail: list[tuple[int, int]] = []
    results: list[tuple[tuple[int, ...], ...]] = []

    def assign(i: int, j: int, v: int) -> bool:
        cur = T[i][j]
        if cur != -1:
            return cur == v
        if (row_mask[i] | col_mask[j]) >> v & 1:
            return False
        if v == 0:
            if T[j][i] > 0:
                return False
        elif T[j][i] == 0:
            return False
        T[i][j] = v
        rowpos[i][v] = j
        row_mask[i] |= 1 << v
        col_mask[j] |= 1 << v
        trail.append((i, j))
        if v == 0 and i != j and not assign(j, i, 0):
            return False

        # Associativity g*(h*k) = (g*h)*k.  The new cell can appear as
        # either inner product or either outer product; resolve each
        # instance that just became determined, forcing the one unknown
        # outer cell when the opposite side is known.
        for g in range(n):  # inner left: (h,k) = (i,j)
            q = T[g][i]
            if q == -1:
                continue
            a = T[g][v]
            b = T[q][j]
            if a == -1:
                if b != -1 and not assign(g, v, b):
                    return False
            elif b == -1:
                if not assign(q, j, a):
                    return False
            elif a != b:
                return False
        for k in range(n):  # inner right: (g,h) = (i,j)
            p = T[j][k]
            if p == -1:
                continue
            a = T[i][p]
            b = T[v][k]
            if a == -1:
                if b != -1 and not assign(i, p, b):
                    return False
            elif b == -1:
                if not assign(v, k, a):
                    return False
            elif a != b:
                return False
        for h in range(n):  # outer left: (i,j) = (g, h*k)
            k = rowpos[h][j]
            if k == -1:
                continue
            q = T[i][h]
            if q == -1:
                continue
            b = T[q][k]
            if b == -1:
                if not assign(q, k, v):
                    return False
            elif b != v:
                return False
        for g in range(n):  # outer right: (i,j) = (g*h, k)
            h = rowpos[g][i]
            if h == -1:
                continue
            p = T[h][j]
            if p == -1:
                continue
            a = T[g][p]
            if a == -1:
                if not assign(g, p, v):
                    return False
            elif a != v:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            i, j = trail.pop()
            v = T[i][j]
            T[i][j] = -1
            rowpos[i][v] = -1
            row_mask[i] &= ~(1 << v)
            col_mask[j] &= ~(1 << v)

    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def search(idx: int) -> None:
        while idx < len(cells) and T[cells[idx][0]][cells[idx][1]] != -1:
            idx += 1
        if idx == len(cells):
            results.append(tuple(tuple(row) for row in T))
            return
        i, j = cells[idx]
        blocked = row_mask[i] | col_mask[j]
        for v in range(n):
            if blocked >> v & 1:
                continue
            mark = len(trail)
            if assign(i, j, v):
                search(idx + 1)
            undo(mark)

    if all(assign(0, j, j) for j in range(n)) and all(assign(i, 0, i) for i in range(1, n)):
        search(0)
    return results


def enumerate_hom_groups(
    cfg: SearchConfig, stats: Optional[ClassifyStats] = None
) -> list[HomGroup]:
    """All Hom-groups on {0..order-1} with unit 0, sorted by table.

    Each group table with unit 0 is twisted by each of its automorphisms;
    the identity twist, which leaves an ordinary group, is kept only when
    include_groups is set.  Every labeled structure is returned; pass the
    list to reduce_to_classes for one representative per isomorphism class.
    """
    if cfg.order > cfg.max_order_guard:
        raise OrderGuardError(
            f"order {cfg.order} exceeds guard {cfg.max_order_guard}; "
            "raise max_order_guard explicitly to search this far"
        )
    stats = ClassifyStats() if stats is None else stats
    start = time.perf_counter()
    tables = _group_tables(cfg.order)
    searched = time.perf_counter()
    stats.group_tables += len(tables)
    # One Permutation per distinct twist, shared by every structure it twists, saves memory.
    twists: dict[tuple[int, ...], Permutation] = {}
    structures: list[HomGroup] = []
    while tables:
        # Popping frees each group table once twisted, for the structures to reuse.
        group = FiniteGroup(tables.pop())
        autos = automorphisms_of(group)
        stats.automorphisms += len(autos)
        for alpha in autos:
            if alpha.is_identity and not cfg.include_groups:
                continue
            structures.append(twist(group, twists.setdefault(alpha.images, alpha)))
    structures.sort(key=lambda g: g.table.entries)
    stats.structures += len(structures)
    stats.search_s += searched - start
    stats.twist_s += time.perf_counter() - searched
    return structures


def _invariant(G: HomGroup) -> tuple:
    """Isomorphism invariant: twist cycle type, commutativity, the number
    of x with x*x = unit, and the sorted (preperiod, period) of right
    powers."""
    t = G.table.entries
    orbits = (power_orbit(G, x) for x in G.elements())
    return (
        G.alpha.cycle_type(),
        G.table.is_symmetric(),
        sum(t[x][x] == G.unit for x in G.elements()),
        tuple(sorted((o.preperiod, o.period) for o in orbits)),
    )


def reduce_to_classes(
    structures: list[HomGroup], stats: Optional[ClassifyStats] = None
) -> list[HomGroup]:
    """One canonical representative per isomorphism class, sorted by table."""
    stats = ClassifyStats() if stats is None else stats
    start = time.perf_counter()
    sizes: Counter[tuple] = Counter()
    buckets: dict[tuple, list[HomGroup]] = {}
    calls = 0
    for G in structures:
        key = _invariant(G)
        sizes[key] += 1
        reps = buckets.setdefault(key, [])
        for R in reps:
            calls += 1
            if are_isomorphic(R, G) is not None:
                break
        else:
            reps.append(G)
    classes = [canonical_form(R) for reps in buckets.values() for R in reps]
    classes.sort(key=lambda g: g.table.entries)
    stats.bucket_sizes += sorted(sizes.values(), reverse=True)
    stats.isomorphism_calls += calls
    stats.canonical_form_calls += len(classes)
    stats.reduce_s += time.perf_counter() - start
    return classes


def relabel(G: HomGroup, p: PermLike) -> HomGroup:
    """Transport G along the relabeling p: new index p(i) plays old i."""
    p = _as_perm(p)
    if len(p) != G.n:
        raise ValueError(f"relabeling length {len(p)} != carrier size {G.n}")
    n = G.n
    t = G.table.entries
    im = p.images
    pinv = p.inverse().images
    table = tuple(
        tuple(im[t[pinv[i]][pinv[j]]] for j in range(n)) for i in range(n)
    )
    alpha = tuple(im[G.alpha(pinv[i])] for i in range(n))
    labels = None if G.labels is None else tuple(G.labels[pinv[i]] for i in range(n))
    return HomGroup(table, alpha, unit=im[G.unit], labels=labels)


def canonical_form(G: HomGroup) -> HomGroup:
    """Lexicographically minimal relabeling with the unit moved to 0.

    Minimizes the flattened table over every bijection sending the unit
    to index 0; idempotent, and two Hom-groups are isomorphic exactly
    when their canonical tables coincide.
    """
    n = G.n
    t = G.table.entries
    others = [i for i in range(n) if i != G.unit]
    best: Optional[tuple[int, ...]] = None
    for rest in permutations(range(1, n)):
        p = [0] * n
        for src, dst in zip(others, rest):
            p[src] = dst
        pinv = [0] * n
        for i, v in enumerate(p):
            pinv[v] = i
        flat = tuple(p[t[pinv[i]][pinv[j]]] for i in range(n) for j in range(n))
        if best is None or flat < best:
            best = flat
    rows = tuple(best[i * n : (i + 1) * n] for i in range(n))
    return HomGroup(rows, rows[0], unit=0)


def are_isomorphic(G: HomGroup, H: HomGroup) -> Optional[Permutation]:
    """A bijection matching products and intertwining the twists, or None.

    Any such map must send unit to unit, so the search assigns images
    starting there, propagating twist orbits, inverses, and products of
    placed elements; twist cycle types are compared first as a cheap
    rejection.
    """
    n = G.n
    if H.n != n:
        return None
    if G.alpha.cycle_type() != H.alpha.cycle_type():
        return None
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

    root: list[int] = []
    if not assign(G.unit, H.unit, root):
        return None

    def backtrack() -> Optional[Permutation]:
        a = 0
        while a < n and f[a] != -1:
            a += 1
        if a == n:
            return Permutation(tuple(f))
        for b in range(n):
            if used[b]:
                continue
            trail: list[int] = []
            if assign(a, b, trail):
                result = backtrack()
                if result is not None:
                    return result
            undo(trail)
        return None

    return backtrack()


@dataclass(frozen=True)
class ClassificationReport:
    order: int
    include_groups: bool
    raw_count: int
    class_count: int
    representatives: tuple[HomGroup, ...]


def classify_order(
    n: int, include_groups: bool = False, max_order_guard: int = 6
) -> ClassificationReport:
    """Labeled and up-to-isomorphism counts at one order, with class reps."""
    cfg = SearchConfig(order=n, include_groups=include_groups, max_order_guard=max_order_guard)
    raw = enumerate_hom_groups(cfg)
    classes = reduce_to_classes(raw)
    return ClassificationReport(
        order=n,
        include_groups=include_groups,
        raw_count=len(raw),
        class_count=len(classes),
        representatives=tuple(classes),
    )
