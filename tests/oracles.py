"""Independent brute-force oracles used to pin expected values.

Nothing here reuses the library's search or pruning machinery: Latin
squares are generated row by row from raw permutations, divisions are
found by scanning, subgroups by filtering every subset, automorphisms by
testing every bijection, and canonical forms by trying every
relabeling.  The axiom checker itself is the one piece of the library the
classification oracles are allowed to call, since it is what they filter
through and how the groups written down by formula are checked.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

from homgroups.core import verify


def all_latin_squares(n):
    """Every n x n Latin square on symbols 0..n-1, row by row."""
    perms = list(permutations(range(n)))
    rows = []
    out = []

    def extend(col_masks):
        depth = len(rows)
        if depth == n:
            out.append(tuple(rows))
            return
        for p in perms:
            if any(col_masks[j] >> p[j] & 1 for j in range(n)):
                continue
            rows.append(p)
            extend([col_masks[j] | (1 << p[j]) for j in range(n)])
            rows.pop()

    extend([0] * n)
    return out


def hom_groups_by_latin_filter(n):
    """All Hom-group tables with unit 0 found by filtering every Latin
    square through the axiom checker, twist taken from the unit row.
    Includes the identity-twist tables (ordinary groups); callers wanting
    the twisted-only count drop squares whose first row is the identity."""
    found = []
    for square in all_latin_squares(n):
        if verify(square, square[0], 0).valid:
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


def _dihedral_product(a, b):
    # (r, s) stands for rot^r flip^s, with flip rot = rot^-1 flip
    return ((a[0] + (-1) ** a[1] * b[0]) % 4, (a[1] + b[1]) % 2)


def groups_of_order(n):
    """Every group of order 7 or 8 up to isomorphism, as a table with unit 0.

    Order 7 is prime, so Z7 is the only group; order 8 has the three
    abelian groups Z8, Z4 x Z2, Z2^3 and the two nonabelian ones D4, Q8.
    Each table is checked to be a group by the axiom checker with the
    identity twist."""
    cyclic = lambda m: _table_by_formula(range(m), lambda a, b: (a + b) % m)
    if n == 7:
        tables = [cyclic(7)]
    elif n == 8:
        pairs = [(a, b) for a in range(4) for b in range(2)]
        quaternions = [(sign, u) for u in range(4) for sign in (1, -1)]
        tables = [
            cyclic(8),
            _table_by_formula(pairs, lambda a, b: ((a[0] + b[0]) % 4, (a[1] + b[1]) % 2)),
            _table_by_formula(range(8), lambda a, b: a ^ b),
            _table_by_formula(pairs, _dihedral_product),
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
    {include_groups: (labeled, classes)}, for n = 7 or 8.

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
