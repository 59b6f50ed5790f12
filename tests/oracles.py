"""Independent brute-force oracles used to pin expected values.

Nothing here reuses the library's search or pruning machinery: Latin
squares are generated row by row from raw permutations, divisions are
found by scanning, subgroups by filtering every subset or as the
twist-invariant subgroups of the untwisted group, closures by
multiplying every pair of members, automorphisms by testing every
bijection or by closed formulas for Z_k and D_k, and canonical forms by
trying every relabeling.  The axiom checker itself is the one piece of the library the
classification oracles are allowed to call, since it is what they filter
through and how the groups written down by formula are checked.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import factorial, gcd

from homgroups.core import verify


@cache
def all_latin_squares(n):
    """Every n x n Latin square on symbols 0..n-1, row by row, as a tuple
    built once per n.

    Each candidate row p is the bitmask with bit n*j + p[j] set for every
    column j, so a row clashes with the rows placed so far exactly when its
    mask meets the union of theirs."""
    perms = list(permutations(range(n)))
    masks = [sum(1 << (n * j + v) for j, v in enumerate(p)) for p in perms]
    rows = []
    out = []

    def extend(used):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for p, mask in zip(perms, masks):
            if mask & used:
                continue
            rows.append(p)
            extend(used | mask)
            rows.pop()

    extend(0)
    return tuple(out)


def hom_groups_by_latin_filter(n):
    """All Hom-group tables with unit 0 found by filtering every Latin
    square through the axiom checker, twist taken from the unit row.
    Includes the identity-twist tables (ordinary groups); callers wanting
    the twisted-only count drop squares whose first row is the identity.

    A square is passed to the checker only when 0 is fixed by the twist
    and column 0 equals row 0: with the twist read off row 0, those are the
    unit axioms for unit 0, and the checker rejects every other square."""
    found = []
    for square in all_latin_squares(n):
        unit_laws = square[0][0] == 0 and all(row[0] == v for row, v in zip(square, square[0]))
        if unit_laws and verify(square, square[0], 0).valid:
            found.append(square)
    return sorted(found)


def drop_identity_twist(tables):
    return [t for t in tables if t[0] != tuple(range(len(t)))]


def left_divide_scan(table, a, b):
    matches = [x for x in range(len(table)) if table[a][x] == b]
    assert len(matches) == 1
    return matches[0]


def right_divide_scan(table, a, b):
    matches = [y for y in range(len(table)) if table[y][a] == b]
    assert len(matches) == 1
    return matches[0]


def subgroups_by_subset_filter(G):
    """All Hom-subgroup member sets, by testing every unit-containing
    subset directly against the closure conditions."""
    n = G.n
    t = G.table.entries
    rest = [i for i in range(n) if i != G.unit]
    found = []
    for pick in range(1 << len(rest)):
        members = {G.unit}
        for bit, i in enumerate(rest):
            if pick >> bit & 1:
                members.add(i)
        ok = all(t[a][b] in members for a in members for b in members)
        if ok:
            ok = all(t[a].index(G.unit) in members for a in members)
        if ok:
            ok = all(G.alpha(a) in members for a in members)
        if ok:
            found.append(frozenset(members))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def closure_by_all_pairs(table, unit, gens):
    """The least set holding the unit and gens that is closed under the
    product, by adding every product of two members until none is new."""
    members = {unit, *gens}
    while True:
        new = {table[a][b] for a in members for b in members} - members
        if not new:
            return frozenset(members)
        members |= new


def hom_subgroups_by_untwisting(G):
    """All Hom-subgroup member sets as the twist-invariant subgroups of the
    untwisted group g.h = alpha^-1(g*h), sorted by (size, bitmask).

    The untwisted product is associative with the same unit, so the
    subgroup generated by a set is everything reached from the unit by
    right multiplication with its generators.  Every subgroup is generated
    by the cyclic subgroups it contains, so joining cyclic subgroups until
    nothing new appears finds them all; the twist is only used at the end,
    to keep the subgroups it maps into themselves."""
    n = G.n
    a = G.alpha.images
    a_inv = [0] * n
    for i, v in enumerate(a):
        a_inv[v] = i
    dot = [[a_inv[v] for v in row] for row in G.table.entries]

    def generated(gens):
        members = {G.unit}
        frontier = [G.unit]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = dot[x][g]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return frozenset(members)

    cyclic = {generated((g,)): (g,) for g in range(n)}
    gens_of = dict(cyclic)
    todo = list(cyclic)
    while todo:
        H = todo.pop()
        for C, (g,) in cyclic.items():
            if not C <= H:
                J = generated(gens_of[H] + (g,))
                if J not in gens_of:
                    gens_of[J] = gens_of[H] + (g,)
                    todo.append(J)
    invariant = [H for H in gens_of if all(a[x] in H for x in H)]
    return sorted(invariant, key=lambda H: (len(H), sum(1 << x for x in H)))


def automorphisms_by_filter(group):
    """All automorphisms of a small group by testing every bijection.

    Takes a group object or a bare table."""
    t = group if isinstance(group, tuple) else group.table.entries
    n = len(t)
    found = []
    for images in permutations(range(n)):
        if all(
            images[t[g][k]] == t[images[g]][images[k]] for g in range(n) for k in range(n)
        ):
            found.append(images)
    return sorted(found)


def cyclic_automorphisms_by_formula(k):
    """The automorphisms x -> u*x of Z_k on {0..k-1}, one per unit u mod
    k, sorted by image sequence."""
    units = [u for u in range(k) if gcd(u, k) == 1]
    return sorted(tuple(u * x % k for x in range(k)) for u in units)


def dihedral_automorphisms_by_formula(k):
    """The automorphisms r^i s^e -> r^(a*i + b*e) s^e of D_k for k >= 3,
    one per unit a mod k and b mod k, sorted by image sequence.

    Index i + k*e stands for r^i s^e.  For k <= 2 the group is abelian and
    has automorphisms outside this family."""
    units = [a for a in range(k) if gcd(a, k) == 1]
    return sorted(
        tuple((a * (x % k) + b * (x // k)) % k + k * (x // k) for x in range(2 * k))
        for a in units
        for b in range(k)
    )


def isomorphisms_by_filter(source, target):
    """Every isomorphism between two structures given as (table, alpha,
    unit) triples, sorted by image sequence.

    Tests every bijection that sends unit to unit for products and for
    carrying the source twist to the target twist."""
    ta, aa, ua = source
    tb, ab, ub = target
    n = len(ta)
    if len(tb) != n:
        return []
    found = []
    for f in permutations(range(n)):
        if f[ua] != ub or any(f[aa[g]] != ab[f[g]] for g in range(n)):
            continue
        if all(f[ta[g][k]] == tb[f[g]][f[k]] for g in range(n) for k in range(n)):
            found.append(f)
    return found


def _table_by_formula(elements, product):
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[product(a, b)] for b in elements) for a in elements)


# Products of the quaternion units 1, i, j, k (indices 0-3): (sign, unit).
_QUATERNION_UNITS = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


def _quaternion_product(a, b):
    sign, unit = _QUATERNION_UNITS[a[1]][b[1]]
    return (a[0] * b[0] * sign, unit)


def _dihedral(k):
    """D_k of order 2k on pairs (r, s), standing for rot^r flip^s, with
    flip rot = rot^-1 flip."""
    pairs = [(r, s) for r in range(k) for s in range(2)]
    return _table_by_formula(
        pairs, lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % k, (a[1] + b[1]) % 2)
    )


def groups_of_order(n):
    """Every group of order 4, 6, 7 or 8 up to isomorphism, as a table
    with unit 0.

    Order 4 has Z4 and Z2^2, and order 6 the cyclic Z6 and the
    nonabelian D3.  Order 7 is prime, so Z7 is the only group; order 8
    has the three abelian groups Z8, Z4 x Z2, Z2^3 and the two nonabelian
    ones D4, Q8.  Each table is checked to be a group by the axiom checker
    with the identity twist."""
    cyclic = lambda m: _table_by_formula(range(m), lambda a, b: (a + b) % m)
    if n == 4:
        tables = [cyclic(4), _table_by_formula(range(4), lambda a, b: a ^ b)]
    elif n == 6:
        tables = [cyclic(6), _dihedral(3)]
    elif n == 7:
        tables = [cyclic(7)]
    elif n == 8:
        pairs = [(a, b) for a in range(4) for b in range(2)]
        quaternions = [(sign, u) for u in range(4) for sign in (1, -1)]
        tables = [
            cyclic(8),
            _table_by_formula(pairs, lambda a, b: ((a[0] + b[0]) % 4, (a[1] + b[1]) % 2)),
            _table_by_formula(range(8), lambda a, b: a ^ b),
            _dihedral(4),
            _table_by_formula(quaternions, _quaternion_product),
        ]
    else:
        raise ValueError(f"no formula for the groups of order {n}")
    for t in tables:
        assert verify(t, tuple(range(n)), 0).valid
    return tables


def conjugacy_class_count(perms):
    """Number of conjugacy classes of a group of permutations (image tuples)."""
    n = len(perms[0])
    classes = set()
    for a in perms:
        conjugates = []
        for b in perms:
            b_inv = [0] * n
            for i, v in enumerate(b):
                b_inv[v] = i
            conjugates.append(tuple(b[a[b_inv[i]]] for i in range(n)))
        classes.add(min(conjugates))
    return len(classes)


def hom_group_counts_by_automorphisms(n):
    """Labeled Hom-groups with unit 0 on n points and their classes, as
    {include_groups: (labeled, classes)}, for n = 4, 6, 7 or 8.

    A Hom-group is a group twisted by one of its automorphisms.  By
    orbit-stabilizer a group G has (n-1)!/|Aut G| labeled tables with
    unit 0, each twisted by |Aut G| automorphisms: (n-1)! structures per
    group, of which (n-1)!/|Aut G| are the untwisted tables.  Two twists
    of G are isomorphic exactly when the automorphisms are conjugate in
    Aut G, so G contributes one class per conjugacy class of Aut G, one of
    which is the identity twist."""
    labeled_all = classes_all = group_tables = 0
    groups = groups_of_order(n)
    for t in groups:
        autos = automorphisms_by_filter(t)
        labeled_all += factorial(n - 1)
        group_tables += factorial(n - 1) // len(autos)
        classes_all += conjugacy_class_count(autos)
    return {
        True: (labeled_all, classes_all),
        False: (labeled_all - group_tables, classes_all - len(groups)),
    }


def labeled_hom_groups_by_relabeling(n, include_groups):
    """Every labeled Hom-group with unit 0 at order n = 4, 6, 7 or 8, as
    sorted (table, twist) pairs.

    Each group table of groups_of_order is relabeled by every bijection p
    fixing 0, each distinct relabeled table kept once, and each is
    twisted by p a p^-1 for every automorphism a of the group; the identity
    twist, which leaves the group itself, only when include_groups is set."""
    identity = tuple(range(n))
    found = []
    for t in groups_of_order(n):
        autos = automorphisms_by_filter(t)
        relabeled = {}
        for rest in permutations(range(1, n)):
            p = (0, *rest)
            # inv[k] is the old element that gets new label k
            inv = [0] * n
            for old, new in enumerate(p):
                inv[new] = old
            table = tuple(tuple(p[t[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
            relabeled.setdefault(table, (p, inv))
        for table, (p, inv) in relabeled.items():
            for a in autos:
                beta = tuple(p[a[inv[k]]] for k in range(n))
                if include_groups or beta != identity:
                    found.append((tuple(tuple(beta[v] for v in row) for row in table), beta))
    return sorted(found)


def lexmin_classes(structures):
    """Sorted distinct lex-minimal tables of (table, unit) pairs, minimizing
    the flattened table over every relabeling that sends the unit to 0."""
    found = set()
    for table, unit in structures:
        n = len(table)
        best = None
        for order in permutations(range(n)):
            if order[0] != unit:
                continue
            # order[k] is the old element that gets new label k
            new = [0] * n
            for k, old in enumerate(order):
                new[old] = k
            flat = tuple(new[table[a][b]] for a in order for b in order)
            if best is None or flat < best:
                best = flat
        found.add(tuple(best[i * n : (i + 1) * n] for i in range(n)))
    return sorted(found)


def axiom_violations_by_scan(table, alpha, unit):
    """The Hom-group axioms that fail on a table, twist and unit, each with
    its least witness, in the order core.verify reports them.

    Works on plain lists: every failing tuple is collected and the least
    one kept, and twisted associativity is tested on all n^3 triples.
    """
    n = len(table)
    elems = range(n)
    cols = [[table[i][j] for i in elems] for j in elems]
    found = []

    # A line's witness is its first position q that repeats an earlier
    # entry, with the position p of that entry: (line, p, q).
    for tag, lines in (("latin-row", table), ("latin-col", cols)):
        repeats = [(i, q) for i, line in enumerate(lines) for q in elems if line[q] in line[:q]]
        if repeats:
            i, q = min(repeats)
            found.append((tag, (i, list(lines[i]).index(lines[i][q]), q)))

    if alpha[unit] != unit:
        found.append(("unit-fixed", (unit,)))
    off = [j for j in elems if table[unit][j] != alpha[j]]
    if off:
        found.append(("unit-row", (min(off),)))
    off = [i for i in elems if table[i][unit] != alpha[i]]
    if off:
        found.append(("unit-col", (min(off),)))

    pairs = [
        (g, k)
        for g in elems
        for k in elems
        if alpha[table[g][k]] != table[alpha[g]][alpha[k]]
    ]
    if pairs:
        found.append(("twist-multiplicative", min(pairs)))

    assoc = [
        (g, h, k)
        for g in elems
        for h in elems
        for k in elems
        if table[alpha[g]][table[h][k]] != table[table[g][h]][alpha[k]]
    ]
    if assoc:
        found.append(("hom-associativity", min(assoc)))

    missing = [g for g in elems if unit not in table[g]]
    if missing:
        found.append(("inverse-missing", (min(missing),)))
    asym = [
        (g, table[g].index(unit))
        for g in elems
        if unit in table[g] and table[table[g].index(unit)][g] != unit
    ]
    if asym:
        found.append(("inverse-asymmetric", min(asym)))
    return found


def hopf_violations_by_scan(table, alpha, unit, antipode):
    """The twisted Hopf identities of the span of a table that can fail,
    each with its lexicographically least failing basis tuple.

    Works on plain lists: every failing tuple is collected and the least
    one kept.  The coalgebra identities are absent because the diagonal
    coproduct, the constant-one counit and the identity cotwist satisfy
    them for any data.
    """
    n = len(table)
    elems = range(n)
    found = []

    assoc = [
        (g, h, k)
        for g in elems
        for h in elems
        for k in elems
        if table[alpha[g]][table[h][k]] != table[table[g][h]][alpha[k]]
    ]
    if assoc:
        found.append(("algebra-assoc", min(assoc)))

    if alpha[unit] != unit:
        found.append(("algebra-unit", (unit,)))
    else:
        off = [g for g in elems if not table[g][unit] == table[unit][g] == alpha[g]]
        if off:
            found.append(("algebra-unit", (min(off),)))

    off = [g for g in elems if not table[antipode[g]][g] == table[g][antipode[g]] == unit]
    if off:
        found.append(("antipode", (min(off),)))

    if antipode[unit] != unit:
        found.append(("antipode-unit", (unit,)))
    return found


def formal_maps_by_loops(table, alpha, antipode):
    """The structure maps of the span of a table, and the linear operations,
    on plain {key: int} dicts, as a dict of functions keyed by name.

    Each map sends every term, or every pair of terms, through the table,
    twist or antipode with nested loops, sums the terms that land on the
    same key, and drops the keys whose sum is 0."""

    def collect(terms):
        out = {}
        for k, v in terms:
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v != 0}

    def product(x, y):
        return collect((table[i][j], a * b) for i, a in x.items() for j, b in y.items())

    def tensor_product(x, y):
        return collect(
            ((table[a][c], table[b][d]), u * v)
            for (a, b), u in x.items()
            for (c, d), v in y.items()
        )

    return {
        "product": product,
        "tensor_product": tensor_product,
        "coproduct": lambda x: collect(((i, i), v) for i, v in x.items()),
        "antipode": lambda x: collect((antipode[i], v) for i, v in x.items()),
        "twist": lambda x: collect((alpha[i], v) for i, v in x.items()),
        "scale": lambda x, c: collect((k, c * v) for k, v in x.items()),
        "add": lambda x, y: collect([*x.items(), *y.items()]),
        "sub": lambda x, y: collect([*x.items(), *((k, -v) for k, v in y.items())]),
    }
