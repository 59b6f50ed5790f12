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
groups.  A Hom-group isomorphism is a group isomorphism f that carries
one twist to the other, f alpha f^-1 = beta, so the classes are the pairs
(group up to isomorphism, conjugacy class of its automorphism group).

Classification therefore starts from one group R per isomorphism class.
Every group of order below 60 is solvable, so it has a normal subgroup N
of prime index p and an element t outside N: it is a cyclic extension,
the elements t^i x for 0 <= i < p and x in N, with t x t^-1 = phi(x) for
some automorphism phi of N and t^p = a for some a in N.  The groups of
order n are built from those of order n/p, for each prime p dividing n,
from every (phi, a) with phi(a) = a and phi^p conjugation by a, the
conditions under which the table is a group, one per isomorphism class.
From order 60 on, where A5 has no such N, the builder refuses.

A group R has (n-1)!/|Aut R| labeled tables with unit 0: its relabelings
fixing 0, two of them equal exactly when they differ by an automorphism
(orbit-stabilizer).  Each is twisted by the |Aut R| relabeled
automorphisms of R, so R gives (n-1)! structures, (n-1)! - (n-1)!/|Aut R|
of them twisted.  classify_order reads everything it reports off the
pairs (R, Aut R): the labeled count by this formula, and the classes as
R twisted by one automorphism from each conjugacy class, each put in
canonical form.  The number of classes is the number of those (R, class)
pairs, so a caller that only counts them, as the classify command does
for its labeled listing, needs no canonical form.  Only
enumerate_hom_groups builds the labeled structures.
It builds each labeled table once, from the lex-least relabeling in its
orbit under Aut R, which a walk down the pointwise stabilizers in Aut R
finds without building the other relabelings.  It twists each table by
the relabeled automorphisms of R, so no labeled table needs an
automorphism search of its own, and the structures share equal rows.  A
group twisted by an automorphism is a Hom-group by the converse above, so
the twists are built without checking the axioms again.

canonical_form runs the same walk on any Hom-group, over its own
automorphisms and from its unit.  Orderings that differ by an
automorphism give equal tables, so the least table over the one ordering
per orbit that the walk builds is the least over all (n-1)! of them.

reduce_to_classes finds the classes of an arbitrary list of structures
instead: it buckets them by the multiset of element keys (twist-cycle
length, order in the untwisted group), which every isomorphism preserves,
tests each against the representatives already kept in its bucket by the
generator-image search, and puts one structure per class in canonical
form.  The group builder dedupes its candidate tables the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .constructions import (
    _isomorphisms,
    _keys,
    _profile,
    automorphisms_of,
    inner_automorphism,
    twist,
)
from .core import FiniteGroup, HomGroup, Permutation, PermLike, _as_perm, _prime_divisors

ORDER_GUARD = 6  # default largest order searched; callers raise it explicitly
_SOLVABLE_BELOW = 60  # every group of smaller order is solvable; A5 has order 60
_Pairs = list[tuple[FiniteGroup, list[Permutation]]]  # each group with its automorphisms


class OrderGuardError(ValueError):
    """Requested order exceeds the configured search guard."""


@dataclass(frozen=True)
class SearchConfig:
    order: int
    include_groups: bool = False
    max_order_guard: int = ORDER_GUARD

    def __post_init__(self):
        if type(self.order) is not int or self.order < 1:
            raise ValueError(f"order must be an integer >= 1, got {self.order!r}")


class ClassifyStats:
    """What one classification did: counts and seconds per phase.

    search_s is building the groups, one per isomorphism class;
    automorphisms_s the automorphism searches on those groups; twist_s
    walking their labeled tables and twisting each; reduce_s the class
    representatives, with the automorphism search that each canonical
    form runs on its structure, which automorphisms does not count.
    isomorphism_calls counts the searches that dedupe the groups built,
    or the structures given to reduce_to_classes.
    classify_order builds no labeled table, so it leaves group_tables,
    structures and twist_s alone; enumerate_hom_groups sets them and
    takes no canonical form.
    """

    def __init__(self) -> None:
        self.group_tables = 0
        self.automorphisms = 0
        self.structures = 0
        self.isomorphism_calls = 0
        self.canonical_form_calls = 0
        self.search_s = 0.0
        self.automorphisms_s = 0.0
        self.twist_s = 0.0
        self.reduce_s = 0.0


def _distinct(structures: Iterable[HomGroup], stats: ClassifyStats) -> list[HomGroup]:
    """The first structure met of each isomorphism class, in order met.

    A search from a kept structure needs its generators, but of the
    structure searched for only the keys, so only the kept take generators.
    """
    buckets: dict[tuple, list[tuple[HomGroup, tuple]]] = {}
    kept: list[HomGroup] = []
    for G in structures:
        k = _keys(G)  # (keys, signature)
        reps = buckets.setdefault(k[1], [])
        for R, pr in reps:
            stats.isomorphism_calls += 1
            if next(_isomorphisms(R, G, pr, k), None) is not None:
                break
        else:
            reps.append((G, _profile(G)))
            kept.append(G)
    return kept


def _extensions(N: FiniteGroup, p: int) -> Iterator[FiniteGroup]:
    """Every group t^i x (0 <= i < p, x in N) with t x t^-1 = phi(x) and
    t^p = a, over all automorphisms phi of N and all a in N.

    Element t^i x has index i*|N| + x.  Since x t^j = t^j phi^-j(x), the
    product (t^i x)(t^j y) is t^(i+j) phi^-j(x) y, with t^p replaced by a.
    The table is a group exactly when t commutes with t^p, phi(a) = a, and
    conjugation by t^p is conjugation by a, phi^p = inner(a).  Only those
    (phi, a) are built, so each table is a group, whose unit t^0 times N's
    unit 0 has index 0, and it is built without running verify.
    """
    m, t = N.n, N.table.entries
    inner = [inner_automorphism(N, a) for a in range(m)]
    for phi in automorphisms_of(N):
        back = [phi.power(-j).images for j in range(p)]
        phi_p = phi.power(p)
        for a in range(m):
            if phi.images[a] != a or phi_p != inner[a]:
                continue
            table = tuple(
                tuple(
                    (i + j) % p * m + (t[a][t[back[j][x]][y]] if i + j >= p else t[back[j][x]][y])
                    for j in range(p)
                    for y in range(m)
                )
                for i in range(p)
                for x in range(m)
            )
            yield FiniteGroup._from_verified(table, 0, None)


def _groups(n: int, stats: ClassifyStats) -> list[FiniteGroup]:
    """One group of order n per isomorphism class, each with unit 0."""
    if n >= _SOLVABLE_BELOW:
        raise ValueError(
            f"order {n}: groups are built as cyclic extensions of solvable groups, "
            f"which covers every group only below order {_SOLVABLE_BELOW}"
        )
    if n == 1:
        return [FiniteGroup(((0,),))]
    primes = _prime_divisors(n)
    return _distinct(
        (G for p in primes for N in _groups(n // p, stats) for G in _extensions(N, p)), stats
    )


def _relabelings(
    G: HomGroup, autos: list[Permutation]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple]]:
    """Each distinct relabeling of G that sends its unit to 0 once, as
    (p, o, table).

    Relabeling by p sends old i to new p(i); o = p^-1 lists the old element
    that gets each new label, so o starts at the unit.  The table of o has
    entry p(o_k * o_l) at (k, l).  For an automorphism a of G, which fixes
    the unit, the ordering a o gets the relabeling p a^-1, so its entry at
    (k, l) is p a^-1(a(o_k) * a(o_l)) = p(o_k * o_l): the same table.
    Conversely, if o and o' give the same table, a = o' o^-1 fixes the
    unit and is multiplicative, and it commutes with the twist, since
    alpha(x) = unit * x.  So the tables are one per orbit of Aut G on the
    orderings, (n-1)!/|Aut G| of them, for every Hom-group and not only
    for groups.

    The walk builds only the lex-least ordering of each orbit: it fills o
    position by position and accepts o_k only when no automorphism fixing
    o_0..o_(k-1) maps it lower.  An a with a o < o fixes every position
    before the first one it changes and lowers that one, so exactly the
    least ordering of an orbit passes every test; and the least free
    element always passes, so no branch is a dead end.
    """
    n, t, unit = G.n, G.table.entries, G.unit

    def walk(o: tuple[int, ...], free: tuple[int, ...], stabilizer: list[tuple[int, ...]]):
        if not free:
            p = tuple(sorted(range(n), key=o.__getitem__))
            yield p, o, tuple(tuple(p[t[i][j]] for j in o) for i in o)
        for x in free:
            if all(a[x] >= x for a in stabilizer):
                rest = tuple(y for y in free if y != x)
                yield from walk((*o, x), rest, [a for a in stabilizer if a[x] == x])

    others = tuple(x for x in range(n) if x != unit)
    return walk((unit,), others, [a.images for a in autos])


def _group_pairs(cfg: SearchConfig, stats: ClassifyStats) -> _Pairs:
    """One group of order cfg.order per isomorphism class, each with its
    automorphisms, after checking the order guard."""
    if cfg.order > cfg.max_order_guard:
        raise OrderGuardError(
            f"order {cfg.order} exceeds guard {cfg.max_order_guard}; "
            "raise max_order_guard explicitly to search this far"
        )
    start = time.perf_counter()
    groups = _groups(cfg.order, stats)
    built = time.perf_counter()
    pairs = [(R, automorphisms_of(R)) for R in groups]
    stats.automorphisms += sum(len(autos) for _, autos in pairs)
    stats.search_s += built - start
    stats.automorphisms_s += time.perf_counter() - built
    return pairs


def enumerate_hom_groups(
    cfg: SearchConfig, stats: Optional[ClassifyStats] = None
) -> list[HomGroup]:
    """All Hom-groups on {0..order-1} with unit 0, sorted by table.

    Each labeled group table with unit 0, built once by _relabelings, is
    twisted by each of its automorphisms; the identity twist, which leaves
    an ordinary group, is kept only when include_groups is set.  Equal rows
    are one tuple, shared by every structure holding them, and a twist is
    its structure's row 0.  Every labeled structure is returned; pass the
    list to reduce_to_classes for one representative per isomorphism class.
    In stats, search_s times building the groups only, and twist_s the walk
    over their labeled tables and the twists.
    """
    stats = ClassifyStats() if stats is None else stats
    return _listing(_group_pairs(cfg, stats), cfg.include_groups, stats)


def _listing(pairs: _Pairs, include_groups: bool, stats: ClassifyStats) -> list[HomGroup]:
    """The labeled structures of enumerate_hom_groups, from its group pairs.

    Each structure keeps only its rows, the twist being row 0.  The
    relabeling walk is consumed lazily, so each relabeled table is freed
    once it has been twisted; its time counts under twist_s.
    """
    start = time.perf_counter()
    n = pairs[0][0].n
    # itemgetter returns a bare item, not a 1-tuple, for a single index.  So
    # each gather below takes the unit 0 as one index more, which the next
    # gather never reads, and rows_of cuts row 0 twice, the first copy
    # dropped: every getter has two indices or more, at order 1 too.
    rows_of = itemgetter(*(slice(k, k + n) for k in (0, *range(0, n * n, n))))
    # One tuple per distinct row, shared by every structure holding it.
    rows_seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    structures: list[HomGroup] = []
    for R, autos in pairs:
        # p -> p alpha, for each twist alpha kept.
        p_alpha_of = [
            itemgetter(*a.images, 0) for a in autos if include_groups or not a.is_identity
        ]
        for p, o, table in _relabelings(R, autos):
            stats.group_tables += 1
            beta_of = itemgetter(*o, 0)  # p alpha -> p alpha p^-1
            twisted_of = itemgetter(*chain.from_iterable(table), 0)  # beta -> beta(table)
            for p_alpha in p_alpha_of:
                rs = rows_of(twisted_of(beta_of(p_alpha(p))))
                shared = tuple(map(rows_seen.setdefault, rs, rs))
                structures.append(HomGroup._from_verified(shared[1:], 0, None))
    structures.sort(key=lambda g: g.table.entries)
    stats.structures += len(structures)
    stats.twist_s += time.perf_counter() - start
    return structures


def reduce_to_classes(
    structures: list[HomGroup], stats: Optional[ClassifyStats] = None
) -> list[HomGroup]:
    """One canonical representative per isomorphism class, sorted by table."""
    stats = ClassifyStats() if stats is None else stats
    start = time.perf_counter()
    classes = [canonical_form(R) for R in _distinct(structures, stats)]
    classes.sort(key=lambda g: g.table.entries)
    stats.canonical_form_calls += len(classes)
    stats.reduce_s += time.perf_counter() - start
    return classes


def _class_twists(pairs: _Pairs, include_groups: bool) -> list[tuple[FiniteGroup, Permutation]]:
    """One (group, twist) pair per class: each group with one automorphism
    from each conjugacy class, the identity only when include_groups is set."""
    return [
        (R, alpha)
        for R, autos in pairs
        for alpha in _conjugacy_representatives(autos)
        if include_groups or not alpha.is_identity
    ]


def _conjugacy_representatives(autos: list[Permutation]) -> Iterator[Permutation]:
    """One member of each conjugacy class of a group of permutations, the
    first in the order given: the least for automorphisms_of's sorted list."""
    seen: set[tuple[int, ...]] = set()
    conjugators = [(s.images, s.inverse().images) for s in autos]
    for a in autos:
        if a.images not in seen:
            yield a
            seen.update(tuple(s[a.images[i]] for i in s_inv) for s, s_inv in conjugators)


def relabel(G: HomGroup, p: PermLike) -> HomGroup:
    """Transport G along the relabeling p: new index p(i) plays old i.

    p is then an isomorphism from G onto the result, which carries every
    axiom of G over, so it is built without running verify.
    """
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
    labels = None if G.labels is None else tuple(G.labels[pinv[i]] for i in range(n))
    return HomGroup._from_verified(table, im[G.unit], labels)


def canonical_form(G: HomGroup) -> HomGroup:
    """Lexicographically minimal relabeling with the unit moved to 0.

    Minimizes the table, row by row, over every bijection sending the unit
    to index 0.  Orderings that differ by an automorphism of G give the
    same table, so the minimum is taken over the one ordering per orbit
    that _relabelings builds.  Idempotent, and two Hom-groups are
    isomorphic exactly when their canonical tables coincide.

    The least table is that of a relabeling of G with unit 0, so it is a
    Hom-group, built without running verify.
    """
    rows = min(table for _, _, table in _relabelings(G, automorphisms_of(G)))
    return HomGroup._from_verified(rows, 0, None)


def are_isomorphic(G: HomGroup, H: HomGroup) -> Optional[Permutation]:
    """An isomorphism from G to H, or None when there is none.

    An isomorphism matches products and intertwines the twists.  The map
    returned is the first one the generator-image search finds, the search
    that automorphisms_of runs from G to itself; which of several
    isomorphisms that is, is not part of the contract.
    """
    return next(_isomorphisms(G, H), None)


@dataclass(frozen=True)
class ClassificationReport:
    """What classify_order found at one order.

    raw_count is the number of labeled structures that enumerate_hom_groups
    lists, counted rather than listed; representatives holds one canonical
    structure per isomorphism class, sorted by table.
    """

    raw_count: int
    representatives: tuple[HomGroup, ...]

    @property
    def class_count(self) -> int:
        return len(self.representatives)


def classify_order(
    n: int,
    include_groups: bool = False,
    max_order_guard: int = ORDER_GUARD,
    stats: Optional[ClassifyStats] = None,
) -> ClassificationReport:
    """The number of labeled structures at one order and one representative
    per class, read off the groups and their automorphisms.

    A group R gives (n-1)!/|Aut R| labeled tables, each twisted by every
    automorphism but the identity unless include_groups is set; the count
    matches len(enumerate_hom_groups(...)), which is never built here.  The
    classes are each group twisted by one automorphism per conjugacy class,
    in canonical form and sorted by table, the same list reduce_to_classes
    would give.  Pass stats to collect counts and timings.
    """
    cfg = SearchConfig(order=n, include_groups=include_groups, max_order_guard=max_order_guard)
    stats = ClassifyStats() if stats is None else stats
    pairs = _group_pairs(cfg, stats)
    start = time.perf_counter()
    classes = [canonical_form(twist(R, a)) for R, a in _class_twists(pairs, include_groups)]
    classes.sort(key=lambda g: g.table.entries)
    stats.canonical_form_calls += len(classes)
    stats.reduce_s += time.perf_counter() - start
    raw = sum(factorial(n - 1) // len(a) * (len(a) - (not include_groups)) for _, a in pairs)
    return ClassificationReport(raw, tuple(classes))
