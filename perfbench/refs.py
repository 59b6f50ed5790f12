"""Independent references for checking benchmark outputs.

Nothing here imports ``homgroups``.  Groups are built from closed forms,
automorphisms from their textbook descriptions, subgroups by joining
cyclic subgroups, and the Hom-group axioms are checked by brute force
straight from their definitions.  The benchmark compares the library's
answers against these.
"""

from __future__ import annotations

from itertools import product
from math import gcd

# Axiom tags in the order the library reports them.
AXIOM_TAGS = (
    "latin-row",
    "latin-col",
    "unit-fixed",
    "unit-row",
    "unit-col",
    "twist-multiplicative",
    "hom-associativity",
    "inverse-missing",
    "inverse-asymmetric",
)


def axiom_failures(table, alpha, unit):
    """Tags of every Hom-group axiom that fails, in AXIOM_TAGS order."""
    t = [list(row) for row in table]
    a = list(alpha)
    n = len(t)
    cols = [[t[i][j] for i in range(n)] for j in range(n)]
    failing = set()
    if any(len(set(row)) != n for row in t):
        failing.add("latin-row")
    if any(len(set(col)) != n for col in cols):
        failing.add("latin-col")
    if a[unit] != unit:
        failing.add("unit-fixed")
    if t[unit] != a:
        failing.add("unit-row")
    if cols[unit] != a:
        failing.add("unit-col")
    if any(a[t[g][k]] != t[a[g]][a[k]] for g, k in product(range(n), repeat=2)):
        failing.add("twist-multiplicative")
    if any(
        t[a[g]][t[h][k]] != t[t[g][h]][a[k]] for g, h, k in product(range(n), repeat=3)
    ):
        failing.add("hom-associativity")
    if any(unit not in row for row in t):
        failing.add("inverse-missing")
    # The inverse of g is the first b with g*b = unit; it must also satisfy b*g = unit.
    if any(unit in row and t[row.index(unit)][g] != unit for g, row in enumerate(t)):
        failing.add("inverse-asymmetric")
    return tuple(tag for tag in AXIOM_TAGS if tag in failing)


# ---------------------------------------------------------------- groups
#
# Element encodings match the library's documented ones: Z_k is {0..k-1}
# under addition; D_k (order 2k) stores r^i s^e at index i + k*e; the
# product of groups G and H stores (g, h) at index g*|H| + h.


def cyclic_table(k):
    return tuple(tuple((i + j) % k for j in range(k)) for i in range(k))


def dihedral_table(k):
    def prod(a, b):
        i, e = a % k, a // k
        j, f = b % k, b // k
        return ((i - j) % k if e else (i + j) % k) + k * (e ^ f)

    return tuple(tuple(prod(a, b) for b in range(2 * k)) for a in range(2 * k))


def product_table(t1, t2):
    m = len(t2)
    return tuple(
        tuple(t1[a // m][b // m] * m + t2[a % m][b % m] for b in range(len(t1) * m))
        for a in range(len(t1) * m)
    )


def product_map(p1, p2):
    m = len(p2)
    return tuple(p1[a // m] * m + p2[a % m] for a in range(len(p1) * m))


def units(k):
    return [u for u in range(1, k) if gcd(u, k) == 1] if k > 1 else [0]


def cyclic_automorphisms(k):
    """x -> u*x for every unit u mod k."""
    return [tuple(u * x % k for x in range(k)) for u in units(k)]


def dihedral_automorphisms(k):
    """r^i s^e -> r^(u*i + v*e) s^e for u a unit mod k, 0 <= v < k (k >= 3)."""
    return [
        tuple(((u * (a % k) + v * (a // k)) % k) + k * (a // k) for a in range(2 * k))
        for u in units(k)
        for v in range(k)
    ]


def twisted_table(table, alpha):
    """The Yau twist: g*k = alpha(g k)."""
    return tuple(tuple(alpha[v] for v in row) for row in table)


def relabel(table, alpha, unit, p):
    """Transport a structure along the bijection p: new index p[i] plays old i."""
    n = len(table)
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    new_table = [[p[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    return new_table, [p[alpha[inv[i]]] for i in range(n)], p[unit]


def is_automorphism(table, f):
    n = len(table)
    return all(f[table[g][k]] == table[f[g]][f[k]] for g in range(n) for k in range(n))


def nonunit_orbits(alpha, unit=0):
    """Cycles of alpha that avoid the unit, each as a sorted tuple."""
    seen = {unit}
    out = []
    for i in range(len(alpha)):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = alpha[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = alpha[j]
        out.append(tuple(sorted(cyc)))
    return out


def cycle_type(alpha):
    n = len(alpha)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = alpha[j]
            length += 1
        lengths.append(length)
    return sorted(lengths)


# ---------------------------------------------------------------- subgroups


def closure(table, members):
    """The subgroup generated by a set of elements of a finite group."""
    gens = sorted(members)
    found = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(found)


def group_subgroups(table):
    """Every subgroup of a finite group (unit 0), by joining cyclic ones."""
    n = len(table)
    cyclic = {closure(table, {g}) for g in range(n)}
    subgroups = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        nxt = []
        for h in frontier:
            for c in cyclic:
                if c <= h:
                    continue
                j = closure(table, h | c)
                if j not in subgroups:
                    subgroups.add(j)
                    nxt.append(j)
        frontier = nxt
    return subgroups


def bitmask(members):
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def hom_subgroups(group_table, alpha):
    """Hom-subgroups of the twist of a group by alpha, sorted by (size, bitmask).

    These are the subgroups of the untwisted group that alpha maps onto
    themselves.
    """
    invariant = [
        h for h in group_subgroups(group_table) if all(alpha[x] in h for x in h)
    ]
    invariant.sort(key=lambda h: (len(h), bitmask(h)))
    return [tuple(sorted(h)) for h in invariant]


def coset_blocks(twisted, members, side):
    """Distinct cosets g*H (left) or H*g (right) in order of first representative."""
    blocks = []
    for g in range(len(twisted)):
        if side == "left":
            block = tuple(sorted({twisted[g][h] for h in members}))
        else:
            block = tuple(sorted({twisted[h][g] for h in members}))
        if block not in blocks:
            blocks.append(block)
    return blocks


def prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
