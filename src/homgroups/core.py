"""Exact finite Hom-group structures with 0-based index conventions.

A Hom-group is a finite carrier {0..n-1} with a Cayley table, a bijective
twisting map on the carrier, and a two-sided unit.  Associativity and
unitality hold only up to the twist; division is still total, so every
verified table is a Latin square.  An ordinary group is the Hom-group
whose twist is the identity: FiniteGroup is that HomGroup, checked by the
same verifier.  All arithmetic here is exact machine integers and every
object is immutable after construction.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Literal, NamedTuple, Optional, Sequence, TypeAlias, Union

Side = Literal["left", "right"]


class InvalidStructureError(ValueError):
    """A table/twist/unit triple failed verification; carries the report."""

    def __init__(self, report: "AxiomReport", message: str = ""):
        self.report = report
        tags = ", ".join(tag for tag, _ in report.violations)
        super().__init__(message or f"structure rejected: {tags}")


def _check_exponent(k: int) -> None:
    # True == 1 and 1.0 == 1, so only the exact type keeps them out.
    if type(k) is not int:
        raise ValueError(f"exponent {k!r} is not an int")


def _check_index(i: int, n: int, name: str = "index") -> None:
    """Refuse all but an int in 0..n-1: True == 1 and 1.0 == 1 would pass
    a range test, and a negative index would wrap round a sequence."""
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"{name} {i!r} outside 0..{n - 1}")


def _cycle(images: Sequence[int], i: int) -> list[int]:
    """The cycle through i of the permutation with these images, from i."""
    cycle = [i]
    j = images[i]
    while j != i:
        cycle.append(j)
        j = images[j]
    return cycle


def _apply(images: Sequence[int], i: int, k: int) -> int:
    """Image of i under the k-th iterate of the permutation with these
    images; negative k walks the inverse."""
    _check_index(i, len(images))
    _check_exponent(k)
    cycle = _cycle(images, i)
    return cycle[k % len(cycle)]


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}, stored as its image sequence."""

    __slots__ = ("images",)  # for the reason CayleyTable gives
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ValueError("empty permutation")
        # 1.0 == 1 and True == 1, so the bijection test alone admits them.
        if set(map(type, images)) != {int} or sorted(images) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __reduce__(self):
        return (Permutation, (self.images,))

    def __call__(self, i: int) -> int:
        _check_index(i, len(self.images))
        return self.images[i]

    def __len__(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return Permutation(tuple(self.images[v] for v in other.images))

    def apply(self, i: int, k: int = 1) -> int:
        """Image of i under the k-th iterate; negative k walks the inverse."""
        return _apply(self.images, i, k)

    def power(self, k: int) -> "Permutation":
        """The k-th iterate, from one walk of each cycle: within a cycle it
        is the shift by k modulo the cycle's length."""
        _check_exponent(k)
        images = list(self.images)
        for cyc in self.cycles():
            s = k % len(cyc)
            for x, y in zip(cyc, cyc[s:] + cyc[:s]):
                images[x] = y
        return Permutation(tuple(images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbit decomposition; each cycle starts at its smallest element."""
        seen: set[int] = set()
        out = []
        for i in range(len(self.images)):
            if i not in seen:
                cyc = tuple(_cycle(self.images, i))
                seen.update(cyc)
                out.append(cyc)
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles()))


@dataclass(frozen=True)
class CayleyTable:
    """Square table of carrier indices; entries[i][j] is the product i*j.

    Construction checks only shape and index range.  Whether rows and
    columns are permutations is the verifier's business, not assumed here.
    """

    # One table is kept per listed structure, 25,200 at order 8, so it has
    # no instance dict.  dataclass(slots=True) would build a second class,
    # whose frozen __setattr__ raises TypeError, not FrozenInstanceError,
    # for a name that is not a field (Python 3.11).
    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if n == 0:
            raise ValueError("empty carrier")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(f"entry ({i},{j}) = {v!r} outside 0..{n - 1}")

    def __reduce__(self):
        return (CayleyTable, (self.entries,))

    @property
    def n(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        _check_index(i, len(self.entries))
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        _check_index(j, len(self.entries))
        return tuple(row[j] for row in self.entries)

    def is_symmetric(self) -> bool:
        return self.entries == tuple(zip(*self.entries))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a structure check.

    violations holds one (tag, witness) pair per violated axiom, where the
    witness is the lexicographically first tuple of carrier indices that
    exhibits the failure.  The exceptions are latin-row and latin-col, whose
    witness is (line, earlier position, first repeated position): the first
    line with a repeated entry, the first position in it whose entry already
    occurred, and where that entry occurred before.  Later axioms are still
    checked after an earlier one fails, so a report names every broken
    axiom, not just the first.  The structure is valid exactly when there
    are no violations.
    """

    violations: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.violations)


# Strings, not typing.Union objects: typing caches every Union it builds,
# and a cached Union of the classes above would keep each import of this
# module alive after it is dropped from sys.modules.
TableLike: TypeAlias = "Union[CayleyTable, Sequence[Sequence[int]]]"
PermLike: TypeAlias = "Union[Permutation, Sequence[int]]"


def _checked_table(entries: tuple[tuple[int, ...], ...]) -> CayleyTable:
    """A CayleyTable of rows the caller has already checked, without the
    range scan of CayleyTable's constructor: entries must be a tuple of n
    int tuples of length n, each entry in 0..n-1."""
    table = object.__new__(CayleyTable)
    object.__setattr__(table, "entries", entries)
    return table


def _as_table(table: TableLike) -> CayleyTable:
    return table if isinstance(table, CayleyTable) else CayleyTable(table)


def _as_perm(p: PermLike) -> Permutation:
    return p if isinstance(p, Permutation) else Permutation(p)


def _prime_divisors(n: int) -> list[int]:
    """The primes dividing n, in increasing order."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _multiplicativity_witness(
    t: Sequence[Sequence[int]], a: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The first pair (g, k) with a(g*k) != a(g)*a(k), or None.

    Each row is compared whole, as two itemgetter gathers, and scanned for
    k only when it fails.  At n = 1 both gathers are a bare item, not a
    1-tuple, and still compare equal exactly when the row passes.
    """
    at_a = itemgetter(*a)  # row -> (row[a(0)], ..., row[a(n-1)])
    for g, row in enumerate(t):
        row_ag = t[a[g]]
        if itemgetter(*row)(a) != at_a(row_ag):
            for k, v in enumerate(row):
                if a[v] != row_ag[a[k]]:
                    return (g, k)
    return None


def _hom_associativity_witness(
    t: Sequence[Sequence[int]], a: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """The first triple (g, h, k) with a(g)*(h*k) != (g*h)*a(k), or None."""
    n = len(t)
    for g in range(n):
        row_ag = t[a[g]]
        row_g = t[g]
        for h in range(n):
            row_h = t[h]
            row_gh = t[row_g[h]]
            for k in range(n):
                if row_ag[row_h[k]] != row_gh[a[k]]:
                    return (g, h, k)
    return None


def _closure(t: Sequence[Sequence[int]], unit: int, gens: Iterable[int]) -> frozenset[int]:
    """Everything reached from the unit by right multiplication with the
    unit and with each of gens.

    Each member is visited once and multiplied by k + 1 elements, so the
    walk costs O(|J|(k+1)) for a result J and k generators.  In a
    Hom-group x*unit = alpha(x), so J is twist-stable, and for x in J the
    untwisted product x.g = alpha^-1(x*g) lies in J.  Since alpha is an
    automorphism of ., J is then closed under right multiplication by
    every alpha^i(g), so it holds the subgroup of . that they generate.
    That subgroup holds the unit, is twist-stable and is closed under *,
    so it is J: the least Hom-subgroup holding gens.
    """
    steps = (unit, *gens)
    members = {unit}
    todo = [unit]
    for x in todo:
        row = t[x]
        for s in steps:
            y = row[s]
            if y not in members:
                members.add(y)
                todo.append(y)
    return frozenset(members)


def _greedy_generators(t: Sequence[Sequence[int]], unit: int) -> Iterator[int]:
    """Generators picked greedily in index order: each one is the least
    element that _closure of those before it misses.

    The closure is taken when the next generator is asked for, so a caller
    that stops early, as Light's test does on a failed row, pays for no
    walk past its last generator.  In a Hom-group the generators generate
    it as a Hom-subgroup, and each one at least doubles the closure, so
    there are at most floor(log2 n) of them.
    """
    gens: list[int] = []
    reached = {unit}
    for g in range(len(t)):
        if g not in reached:
            yield g
            gens.append(g)
            reached = _closure(t, unit, gens)


def _is_hom_associative(t: Sequence[Sequence[int]], a: Sequence[int], unit: int) -> bool:
    """True exactly when a(x)*(g*y) = (x*g)*a(y) for all x, g, y, by
    Light's test on the untwisted product g.h = a^-1(g*h).

    The caller must have checked that a is multiplicative for * and that
    the unit's row and column both equal a.  Then a and a^-1 are
    automorphisms of *, and of ., and applying a^2 to both sides shows
    that (x.g).y = x.(g.y) holds exactly when a(x)*(g*y) = (x*g)*a(y).
    So twisted associativity is the associativity of ., and for one g and
    one x the test compares two gathers of rows of *: row x*g at a(y),
    and row a(x) at g*y, for every y.  The set S of elements s with
    (x.s).y = x.(s.y) for all x, y is closed under . (Light; Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1.2).  S is a-stable,
    as a is an automorphism of ., so it is closed under * as well, and it
    holds the unit, which is a two-sided unit of . by the unit row and
    column.

    Generators are picked by _greedy_generators and each is tested, one
    row per element x, when it is picked.  The set _closure reaches from
    the tested generators lies in S, and it holds each of them, since
    unit*g = a(g) and x*unit = a(x) walk round the twist orbit of g.  The
    generators run out only once no element is left outside that set, so
    . is associative when every generator passes, and a failed generator
    is a witness that it is not.  In a Hom-group each new generator at
    least doubles the set, so there are at most floor(log2 n) of them and
    the test costs O(n^2 log n).
    """
    at_a = itemgetter(*a)  # row -> (row[a(0)], ..., row[a(n-1)])
    for g in _greedy_generators(t, unit):
        at_gy = itemgetter(*t[g])  # row -> (row[g*y] for each y)
        for x, row in enumerate(t):
            if at_a(t[row[g]]) != at_gy(t[a[x]]):
                return False
    return True


def _repeat_witness(lines: Iterable[Sequence[int]], n: int) -> Optional[tuple[int, int, int]]:
    """(line, earlier position, first repeated position) for the first line
    with a repeated entry, or None.

    Entries lie in 0..n-1, so a line repeats one exactly when its set is
    smaller than n; the set test runs at C speed and the scan only on a hit.
    The witness is the first position q whose entry occurred before, at p.
    """
    for i, line in enumerate(lines):
        if len(set(line)) < n:
            q = next(q for q, v in enumerate(line) if line.index(v) < q)
            return (i, line.index(line[q]), q)
    return None


def verify(table: TableLike, alpha: PermLike, unit: int) -> AxiomReport:
    """Check every Hom-group axiom on the given data.

    Checks, in order: the Latin-square property of rows and columns, that
    the twist fixes the unit, that the unit's row and column both equal the
    twist, multiplicativity of the twist, twisted associativity, and
    existence plus two-sidedness of inverses.  Each violated axiom is
    reported once with its minimal witness.

    Once the rows are Latin and the unit and twist checks have passed,
    twisted associativity is the associativity of the untwisted product
    g.h = alpha^-1(g*h), which Light's test settles from a generating set,
    in O(n^2 log n) on a Hom-group.  When that test passes too, the columns
    and inverses need no scan: . is then a finite monoid whose left
    translations are bijections, hence a group, so its right translations,
    and with them the columns of *, are bijections too; and g*x = unit
    gives g.x = unit, so x.g = unit and x*g = alpha(unit) = unit.  After
    any failure every check runs, and the scan over all n^3 triples finds
    the lexicographically first failing triple.
    """
    table = _as_table(table)
    alpha = _as_perm(alpha)
    t = table.entries
    n = table.n
    if len(alpha) != n:
        raise ValueError(f"twist length {len(alpha)} != carrier size {n}")
    _check_index(unit, n, "unit")
    a = alpha.images
    rows = _repeat_witness(t, n)

    twist_laws: list[tuple[str, tuple[int, ...]]] = []
    if a[unit] != unit:
        twist_laws.append(("unit-fixed", (unit,)))
    for tag, line in (("unit-row", t[unit]), ("unit-col", tuple(row[unit] for row in t))):
        if line != a:
            twist_laws.append((tag, (next(j for j in range(n) if line[j] != a[j]),)))
    hit = _multiplicativity_witness(t, a)
    if hit is not None:
        twist_laws.append(("twist-multiplicative", hit))

    # Light's test relies on the checks above.
    if rows is None and not twist_laws and _is_hom_associative(t, a, unit):
        return AxiomReport(())

    cols = _repeat_witness(zip(*t), n)
    violations = [(tag, w) for tag, w in (("latin-row", rows), ("latin-col", cols)) if w]
    violations += twist_laws
    hit3 = _hom_associativity_witness(t, a)
    if hit3 is not None:
        violations.append(("hom-associativity", hit3))

    missing = asym = None
    for g, row in enumerate(t):
        if unit not in row:
            missing = missing or (g,)
        elif asym is None and t[row.index(unit)][g] != unit:
            asym = (g, row.index(unit))
    if missing is not None:
        violations.append(("inverse-missing", missing))
    if asym is not None:
        violations.append(("inverse-asymmetric", asym))

    return AxiomReport(tuple(violations))


def _set_slots(G: "HomGroup", table: CayleyTable, unit: int, labels) -> None:
    """Fill G's slots past HomGroup's guard against assignment."""
    object.__setattr__(G, "table", table)
    object.__setattr__(G, "unit", unit)
    object.__setattr__(G, "labels", labels)


class HomGroup:
    """Verified finite Hom-group.

    The public constructor runs the full axiom check and rejects bad data
    with InvalidStructureError.  Library code that has proved the axioms
    for the data it built, as twist does for a group twisted by an
    automorphism, uses _from_verified instead.  The carrier is {0..n-1};
    the unit may sit at any index.  Only the table, unit and labels are
    stored: g*unit = alpha(g), so the twist is the unit's row, and every
    inverse is read off the table too.  Instances are immutable and safe
    to share across threads.
    """

    __slots__ = ("table", "unit", "labels")

    def __init__(
        self,
        table: TableLike,
        alpha: PermLike,
        unit: int = 0,
        labels: Optional[Sequence[str]] = None,
    ):
        table = _as_table(table)
        alpha = _as_perm(alpha)
        report = verify(table, alpha, unit)
        if not report.valid:
            raise InvalidStructureError(report)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != table.n:
                raise ValueError(f"{len(labels)} labels for carrier of size {table.n}")
        _set_slots(self, table, unit, labels)

    @classmethod
    def _from_verified(
        cls,
        entries: tuple[tuple[int, ...], ...],
        unit: int,
        labels: Optional[tuple[str, ...]],
    ) -> "HomGroup":
        """A Hom-group from data the caller has proved valid, unchecked.

        Neither the table's range check nor verify runs, so every argument
        must already be what the public constructor would store: entries a
        tuple of int tuples that passes verify with its unit's row as the
        twist, and labels a tuple of n strings or None.
        """
        G = object.__new__(cls)
        _set_slots(G, _checked_table(entries), unit, labels)
        return G

    def __reduce__(self):
        return (HomGroup, (self.table, self.alpha, self.unit, self.labels))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def alpha(self) -> Permutation:
        """The twist, which is the unit's row: g*unit = unit*g = alpha(g)."""
        return Permutation(self.table.entries[self.unit])

    @property
    def inverses(self) -> tuple[int, ...]:
        """inverses[g] is the column of the unit in row g: in a Hom-group
        g*x = unit holds for exactly one x, and then x*g = unit too."""
        unit = self.unit
        return tuple(row.index(unit) for row in self.table.entries)

    @property
    def n(self) -> int:
        return self.table.n

    def elements(self) -> range:
        return range(self.table.n)

    def label(self, i: int) -> str:
        _check_index(i, self.table.n)
        return self.labels[i] if self.labels is not None else str(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomGroup):
            return NotImplemented
        return self.table == other.table and self.unit == other.unit and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.table.entries, self.unit, self.labels))

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(n={self.n}, unit={self.unit}, alpha={list(self.alpha.images)})"


# Group-law wording for FiniteGroup's rejection message; other tags print as they are.
_GROUP_LAWS = {
    "unit-row": "unit law fails",
    "unit-col": "unit law fails",
    "hom-associativity": "not associative",
}


class FiniteGroup(HomGroup):
    """Ordinary finite group given by its Cayley table; input to twisting.

    A group is the Hom-group whose twist is the identity, so construction
    is HomGroup's full axiom check with that twist.  A table that is not a
    group raises InvalidStructureError, which carries the AxiomReport and
    names the failed group laws.
    """

    __slots__ = ()

    def __init__(self, table: TableLike, unit: int = 0, labels: Optional[Sequence[str]] = None):
        table = _as_table(table)
        try:
            super().__init__(table, Permutation.identity(table.n), unit, labels)
        except InvalidStructureError as exc:
            laws = [f"{_GROUP_LAWS.get(tag, tag)} at {w}" for tag, w in exc.report.violations]
            raise InvalidStructureError(exc.report, f"not a group: {', '.join(laws)}") from None

    def __reduce__(self):
        return (FiniteGroup, (self.table, self.unit, self.labels))

    def mul(self, a: int, b: int) -> int:
        return mul(self, a, b)

    def inv(self, a: int) -> int:
        return inverse_of(self, a)


def mul(G: HomGroup, a: int, b: int) -> int:
    """Product a*b read off the Cayley table."""
    _check_index(a, G.n)
    _check_index(b, G.n)
    return G.table.entries[a][b]


def alpha_apply(G: HomGroup, a: int, k: int) -> int:
    """k-th iterate of the twist at a; negative k iterates the inverse."""
    return _apply(G.table.entries[G.unit], a, k)


def inverse_of(G: HomGroup, a: int) -> int:
    """The unique b with a*b = b*a = unit."""
    _check_index(a, G.n)
    return G.table.entries[a].index(G.unit)


def left_divide(G: HomGroup, a: int, b: int) -> int:
    """The unique x with a*x = b.

    Uses the closed form x = alpha^-1(a^-1) * alpha^-2(b) that witnesses
    the quasigroup property; agrees with a row scan of the table.
    """
    t = G.table.entries
    return t[_apply(t[G.unit], inverse_of(G, a), -1)][_apply(t[G.unit], b, -2)]


def right_divide(G: HomGroup, a: int, b: int) -> int:
    """The unique y with y*a = b, via y = alpha^-2(b) * alpha^-1(a^-1)."""
    t = G.table.entries
    return t[_apply(t[G.unit], b, -2)][_apply(t[G.unit], inverse_of(G, a), -1)]


def is_abelian(G: HomGroup) -> bool:
    return G.table.is_symmetric()


def right_power(G: HomGroup, x: int, m: int) -> int:
    """m-th right power: x^1 = x, x^m = x^(m-1) * x.  Requires m >= 1."""
    return _nth_power(power_orbit(G, x, "right"), m)


def left_power(G: HomGroup, x: int, m: int) -> int:
    """m-th left power: x^1 = x, x^m = x * x^(m-1).  Requires m >= 1."""
    return _nth_power(power_orbit(G, x, "left"), m)


class PowerOrbit(NamedTuple):
    period: int
    orbit: tuple[int, ...]


def power_orbit(G: HomGroup, x: int, side: Side = "right") -> PowerOrbit:
    """Sequence of powers of x on the chosen side.

    Multiplying by x permutes the carrier of a Latin square, so the powers
    x, x^2, x^3, ... are the cycle through x of that permutation, read from
    x: the period and the powers in order.
    """
    _check_index(x, G.n)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    # x^m * x is read down column x, x * x^m along row x.
    line = G.table.col(x) if side == "right" else G.table.row(x)
    seq = _cycle(line, x)
    return PowerOrbit(period=len(seq), orbit=tuple(seq))


def _nth_power(powers: PowerOrbit, m: int) -> int:
    """x^m: index m-1 of the orbit modulo the period, as the powers cycle back to x."""
    _check_exponent(m)
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    return powers.orbit[(m - 1) % powers.period]
