"""Exact finite Hom-group structures with 0-based index conventions.

A Hom-group is a finite carrier {0..n-1} with a Cayley table, a bijective
twisting map on the carrier, and a two-sided unit.  Associativity and
unitality hold only up to the twist; division is still total, so every
verified table is a Latin square.  All arithmetic here is exact machine
integers and every object is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple, Optional, Sequence, Union

Side = Literal["left", "right"]


class InvalidStructureError(ValueError):
    """A table/twist/unit triple failed verification; carries the report."""

    def __init__(self, report: "AxiomReport", message: str = ""):
        self.report = report
        tags = ", ".join(tag for tag, _ in report.violations)
        super().__init__(message or f"structure rejected: {tags}")


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}, stored as its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ValueError("empty permutation")
        # 1.0 == 1 and True == 1, so the bijection test alone admits them.
        if not all(type(v) is int for v in images) or sorted(images) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __len__(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

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
        cycle = [i]
        j = self.images[i]
        while j != i:
            cycle.append(j)
            j = self.images[j]
        return cycle[k % len(cycle)]

    def power(self, k: int) -> "Permutation":
        return Permutation(tuple(self.apply(i, k) for i in range(len(self.images))))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbit decomposition; each cycle starts at its smallest element."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles()))


@dataclass(frozen=True)
class CayleyTable:
    """Square table of carrier indices; entries[i][j] is the product i*j.

    Construction checks only shape and index range.  Whether rows and
    columns are permutations is the verifier's business, not assumed here.
    """

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

    @property
    def n(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def is_symmetric(self) -> bool:
        e = self.entries
        n = len(e)
        return all(e[i][j] == e[j][i] for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a structure check.

    violations holds one (tag, witness) pair per violated axiom, where the
    witness is the lexicographically first tuple of carrier indices that
    exhibits the failure.  Later axioms are still checked after an earlier
    one fails, so a report names every broken axiom, not just the first.
    """

    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    @classmethod
    def from_violations(cls, violations: Sequence[tuple[str, tuple[int, ...]]]) -> "AxiomReport":
        vs = tuple(violations)
        return cls(valid=not vs, violations=vs)

    def tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.violations)


TableLike = Union[CayleyTable, Sequence[Sequence[int]]]
PermLike = Union[Permutation, Sequence[int]]


def _as_table(table: TableLike) -> CayleyTable:
    return table if isinstance(table, CayleyTable) else CayleyTable(tuple(tuple(r) for r in table))


def _as_perm(p: PermLike) -> Permutation:
    return p if isinstance(p, Permutation) else Permutation(tuple(p))


def verify(table: TableLike, alpha: PermLike, unit: int) -> AxiomReport:
    """Check every Hom-group axiom on the given data.

    Checks, in order: the Latin-square property of rows and columns, that
    the twist fixes the unit, that the unit's row and column both equal the
    twist, multiplicativity of the twist, twisted associativity over all
    n^3 triples, and existence plus two-sidedness of inverses.  Each
    violated axiom is reported once with its minimal witness.
    """
    table = _as_table(table)
    alpha = _as_perm(alpha)
    t = table.entries
    n = table.n
    if len(alpha) != n:
        raise ValueError(f"twist length {len(alpha)} != carrier size {n}")
    if type(unit) is not int or not 0 <= unit < n:
        raise ValueError(f"unit {unit!r} outside 0..{n - 1}")
    a = alpha.images
    violations: list[tuple[str, tuple[int, ...]]] = []

    def first_duplicate(seq: tuple[int, ...]) -> Optional[tuple[int, int]]:
        seen: dict[int, int] = {}
        for pos, v in enumerate(seq):
            if v in seen:
                return seen[v], pos
            seen[v] = pos
        return None

    for i in range(n):
        dup = first_duplicate(t[i])
        if dup is not None:
            violations.append(("latin-row", (i, dup[0], dup[1])))
            break
    for j in range(n):
        dup = first_duplicate(table.col(j))
        if dup is not None:
            violations.append(("latin-col", (j, dup[0], dup[1])))
            break

    if a[unit] != unit:
        violations.append(("unit-fixed", (unit,)))

    if t[unit] != a:
        j = next(j for j in range(n) if t[unit][j] != a[j])
        violations.append(("unit-row", (j,)))
    col_u = table.col(unit)
    if col_u != a:
        i = next(i for i in range(n) if col_u[i] != a[i])
        violations.append(("unit-col", (i,)))

    for g in range(n):
        row_ag = t[a[g]]
        hit = None
        for k in range(n):
            if a[t[g][k]] != row_ag[a[k]]:
                hit = (g, k)
                break
        if hit is not None:
            violations.append(("twist-multiplicative", hit))
            break

    hit3 = None
    for g in range(n):
        row_ag = t[a[g]]
        row_g = t[g]
        for h in range(n):
            gh = row_g[h]
            row_h = t[h]
            row_gh = t[gh]
            for k in range(n):
                if row_ag[row_h[k]] != row_gh[a[k]]:
                    hit3 = (g, h, k)
                    break
            if hit3:
                break
        if hit3:
            break
    if hit3:
        violations.append(("hom-associativity", hit3))

    missing = None
    asym = None
    for g in range(n):
        b = None
        for cand in range(n):
            if t[g][cand] == unit:
                b = cand
                break
        if b is None:
            if missing is None:
                missing = (g,)
        elif t[b][g] != unit and asym is None:
            asym = (g, b)
    if missing is not None:
        violations.append(("inverse-missing", missing))
    if asym is not None:
        violations.append(("inverse-asymmetric", asym))

    return AxiomReport.from_violations(violations)


class HomGroup:
    """Verified finite Hom-group.

    Construction runs the full axiom check and rejects bad data with
    InvalidStructureError; inverses are precomputed from the table.  The
    carrier is {0..n-1}; the unit may sit at any index.  Instances are
    immutable and safe to share across threads.
    """

    __slots__ = ("table", "alpha", "unit", "labels", "inverses")

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
        self.table = table
        self.alpha = alpha
        self.unit = unit
        self.labels = labels
        self.inverses = tuple(row.index(unit) for row in table.entries)

    @property
    def n(self) -> int:
        return self.table.n

    def elements(self) -> range:
        return range(self.table.n)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomGroup):
            return NotImplemented
        return (
            self.table == other.table
            and self.alpha == other.alpha
            and self.unit == other.unit
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.table.entries, self.alpha.images, self.unit, self.labels))

    def __repr__(self) -> str:
        return f"HomGroup(n={self.n}, unit={self.unit}, alpha={list(self.alpha.images)})"


class FiniteGroup:
    """Ordinary finite group given by its Cayley table; input to twisting."""

    __slots__ = ("table", "unit", "labels", "inverses")

    def __init__(self, table: TableLike, unit: int = 0, labels: Optional[Sequence[str]] = None):
        table = _as_table(table)
        t = table.entries
        n = table.n
        if type(unit) is not int or not 0 <= unit < n:
            raise ValueError(f"unit {unit!r} outside 0..{n - 1}")
        for g in range(n):
            if t[unit][g] != g or t[g][unit] != g:
                raise ValueError(f"unit law fails at {g}")
        for g in range(n):
            for h in range(n):
                gh = t[g][h]
                for k in range(n):
                    if t[gh][k] != t[g][t[h][k]]:
                        raise ValueError(f"not associative at triple ({g},{h},{k})")
        inverses = []
        for g in range(n):
            try:
                b = t[g].index(unit)
            except ValueError:
                raise ValueError(f"no inverse for {g}") from None
            if t[b][g] != unit:
                raise ValueError(f"one-sided inverse at {g}")
            inverses.append(b)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for carrier of size {n}")
        self.table = table
        self.unit = unit
        self.labels = labels
        self.inverses = tuple(inverses)

    @property
    def n(self) -> int:
        return self.table.n

    def elements(self) -> range:
        return range(self.table.n)

    def mul(self, a: int, b: int) -> int:
        return self.table.entries[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table and self.unit == other.unit

    def __hash__(self) -> int:
        return hash((self.table.entries, self.unit))

    def __repr__(self) -> str:
        return f"FiniteGroup(n={self.n}, unit={self.unit})"


def _check_index(G: Union[HomGroup, FiniteGroup], i: int, name: str = "index") -> None:
    if type(i) is not int or not 0 <= i < G.n:
        raise ValueError(f"{name} {i!r} outside 0..{G.n - 1}")


def mul(G: HomGroup, a: int, b: int) -> int:
    """Product a*b read off the Cayley table."""
    _check_index(G, a)
    _check_index(G, b)
    return G.table.entries[a][b]


def alpha_apply(G: HomGroup, a: int, k: int) -> int:
    """k-th iterate of the twist at a; negative k iterates the inverse."""
    _check_index(G, a)
    return G.alpha.apply(a, k)


def inverse_of(G: HomGroup, a: int) -> int:
    """The unique b with a*b = b*a = unit."""
    _check_index(G, a)
    return G.inverses[a]


def left_divide(G: HomGroup, a: int, b: int) -> int:
    """The unique x with a*x = b.

    Uses the closed form x = alpha^-1(a^-1) * alpha^-2(b) that witnesses
    the quasigroup property; agrees with a row scan of the table.
    """
    _check_index(G, a)
    _check_index(G, b)
    t = G.table.entries
    return t[G.alpha.apply(G.inverses[a], -1)][G.alpha.apply(b, -2)]


def right_divide(G: HomGroup, a: int, b: int) -> int:
    """The unique y with y*a = b, via y = alpha^-2(b) * alpha^-1(a^-1)."""
    _check_index(G, a)
    _check_index(G, b)
    t = G.table.entries
    return t[G.alpha.apply(b, -2)][G.alpha.apply(G.inverses[a], -1)]


def is_abelian(G: HomGroup) -> bool:
    return G.table.is_symmetric()


def right_power(G: HomGroup, x: int, m: int) -> int:
    """m-th right power: x^1 = x, x^m = x^(m-1) * x.  Requires m >= 1."""
    _check_index(G, x)
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    t = G.table.entries
    acc = x
    for _ in range(m - 1):
        acc = t[acc][x]
    return acc


def left_power(G: HomGroup, x: int, m: int) -> int:
    """m-th left power: x^1 = x, x^m = x * x^(m-1).  Requires m >= 1."""
    _check_index(G, x)
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    t = G.table.entries
    acc = x
    for _ in range(m - 1):
        acc = t[x][acc]
    return acc


class PowerOrbit(NamedTuple):
    preperiod: int
    period: int
    orbit: tuple[int, ...]


def power_orbit(G: HomGroup, x: int, side: Side = "right") -> PowerOrbit:
    """Eventually periodic sequence of powers of x on the chosen side.

    Iterates x, x^2, x^3, ... until a value repeats (guaranteed by
    finiteness) and returns the preperiod length, the period length, and
    the distinct values in order of first appearance.
    """
    _check_index(G, x)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    t = G.table.entries
    seen: dict[int, int] = {}
    seq: list[int] = []
    cur = x
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = t[cur][x] if side == "right" else t[x][cur]
    first = seen[cur]
    return PowerOrbit(preperiod=first, period=len(seq) - first, orbit=tuple(seq))
