import random
from functools import cache
from itertools import product

import pytest

from homgroups import (
    SearchConfig,
    automorphisms_of,
    cyclic_group,
    dihedral_group,
    enumerate_hom_groups,
    fixture,
    relabel,
    twist,
)

STOCK_FIXTURES = ("z3a", "z6a", "d3a", "z5a")


@pytest.fixture(scope="session")
def z3a():
    return fixture("z3a")


@pytest.fixture(scope="session")
def z6a():
    return fixture("z6a")


@pytest.fixture(scope="session")
def z5a():
    return fixture("z5a")


@pytest.fixture(scope="session")
def d3a():
    return fixture("d3a")


@pytest.fixture(params=STOCK_FIXTURES, scope="session")
def stock_fixture(request):
    return fixture(request.param)


@pytest.fixture(scope="session")
def corrupted_small_structures():
    """(G, table, alpha, unit) for every Hom-group G of order 1-6, each also
    relabeled so that its unit moves from 0 to 1: G's own data, then for
    order 2 and up seeded corruptions of it, each changing one thing.

    The corruptions are three single-cell edits of the table, two swaps of
    twist images, each also with the table twisted by the swapped map, and
    one other unit, each to a different value.
    """
    rng = random.Random(20188)
    structures = []
    for n in range(1, 7):
        for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
            structures.append(G)
            if n > 1:
                structures.append(relabel(G, [(i + 1) % n for i in range(n)]))
    cases = []
    for G in structures:
        n = G.n
        table = [list(row) for row in G.table.entries]
        alpha = list(G.alpha.images)
        cases.append((G, table, alpha, G.unit))
        if n == 1:
            continue
        for _ in range(3):
            edited = [row[:] for row in table]
            i, j = rng.randrange(n), rng.randrange(n)
            edited[i][j] = (edited[i][j] + rng.randrange(1, n)) % n
            cases.append((G, edited, alpha, G.unit))
        for _ in range(2):
            swapped = alpha[:]
            i, j = rng.sample(range(n), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            cases.append((G, table, swapped, G.unit))
            # the same untwisted product twisted by the swapped map instead,
            # so that the unit laws can hold while multiplicativity fails
            retwisted = [[swapped[alpha.index(v)] for v in row] for row in table]
            cases.append((G, retwisted, swapped, G.unit))
        cases.append((G, table, alpha, (G.unit + rng.randrange(1, n)) % n))
    return cases


@pytest.fixture(scope="session")
def unit_framed_order3():
    """(table, alpha, unit) for every order-3 table whose unit row and unit
    column both equal the twist, for each unit and each twist fixing it:
    3 units x 2 twists x 3^4 fillings of the other four cells, 486 tables,
    most of them not Latin squares."""
    cases = []
    for unit in range(3):
        p, q = (x for x in range(3) if x != unit)
        for alpha in ([0, 1, 2], [q if x == p else p if x == q else x for x in range(3)]):
            for cells in product(range(3), repeat=4):
                table = [[0] * 3 for _ in range(3)]
                table[p][p], table[p][q], table[q][p], table[q][q] = cells
                for x in range(3):
                    table[unit][x] = table[x][unit] = alpha[x]
                cases.append((table, alpha, unit))
    return cases


@pytest.fixture(scope="session")
def twists_of():
    """Every twist of Z_k ("zn") or D_k ("dn") by an automorphism, cached."""

    @cache
    def build(kind, k):
        G = cyclic_group(k) if kind == "zn" else dihedral_group(k)
        return tuple(twist(G, a) for a in automorphisms_of(G))

    return build
