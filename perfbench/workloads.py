"""The four benchmark workloads: classify, audit, hopf and screen.

Each workload's ``setup`` turns a seed into inputs and returns the list of
ops that make one pass.  An op runs one CLI invocation (through
``cli.main`` with stdout captured) or, where the CLI has no route, one
public library call.  Its ``check`` compares the output with a reference
from ``refs`` and returns an error message, or None when it is right.
"""

from __future__ import annotations

import functools
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from itertools import permutations, product
from math import gcd
from pathlib import Path
from typing import Any, Callable, Optional

import refs


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    props: dict = field(default_factory=dict)
    span: str = "op"


@dataclass
class Inputs:
    ops: list
    # One entry per input built through the library in setup: an error
    # message when it disagrees with its reference, else None.
    setup_checks: list = field(default_factory=list)


def cli_op(lib, argv, check, props) -> Op:
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = lib.cli.main(argv)
        return code, buf.getvalue()

    return Op(argv[0], run, check, props)


def expect_text(expected_text_fn):
    """Check of a CLI op that must exit 0 with a known stdout; the text is built once."""
    expected_text = functools.cache(expected_text_fn)

    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}: {text[-200:]!r}"
        if text != expected_text():
            return f"output differs from reference: {text[:200]!r}"
        return None

    return check


def fmt_subset(members) -> str:
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


# ---------------------------------------------------------------- families
#
# A family is a group the corpus twists: its reference table, its
# reference automorphisms, the CLI operand that names it (zn:K or dn:K;
# products have none and are passed as a document), and how the library
# builds it.


@dataclass
class Family:
    spec: str
    table: tuple
    autos: list
    operand: Optional[str]
    build: Callable  # lib -> FiniteGroup


def _library_group(lib, kind, k):
    return lib.constructions.cyclic_group(k) if kind == "zn" else lib.constructions.dihedral_group(k)


def _gl2_automorphisms(k):
    """(x, y) -> (a x + b y, c x + d y) on Z_k x Z_k for every invertible matrix."""
    out = []
    for a, b, c, d in product(range(k), repeat=4):
        if gcd(a * d - b * c, k) == 1:
            out.append(
                tuple(
                    ((a * (x // k) + b * (x % k)) % k) * k + (c * (x // k) + d * (x % k)) % k
                    for x in range(k * k)
                )
            )
    return out


def family(spec: str) -> Family:
    """zn:K, dn:K, a product A*B of those, or zn:K^2 with all of GL(2, Z_K)."""
    if "*" in spec or spec.endswith("^2"):
        if spec.endswith("^2"):
            left = right = family(spec[:-2])
            autos = _gl2_automorphisms(int(spec[3:-2]))
        else:
            left, right = (family(s) for s in spec.split("*"))
            autos = [refs.product_map(a, b) for a in left.autos for b in right.autos]

        def build(lib):
            c = lib.constructions
            ident = lambda f, G: c.twist(G, tuple(range(len(f.table))))
            plain = c.direct_product(ident(left, left.build(lib)), ident(right, right.build(lib)))
            return lib.core.FiniteGroup(plain.table, unit=plain.unit, labels=plain.labels)

        return Family(spec, refs.product_table(left.table, right.table), autos, None, build)
    kind, k = spec.split(":")
    k = int(k)
    if kind == "zn":
        table, autos = refs.cyclic_table(k), refs.cyclic_automorphisms(k)
        if k <= 2:
            autos = [tuple(range(k))]
    else:
        table, autos = refs.dihedral_table(k), refs.dihedral_automorphisms(k)
    return Family(spec, table, autos, spec, lambda lib: _library_group(lib, kind, k))


def pick_twist(fam: Family, orbits: Optional[int], rng: random.Random):
    if orbits is None:
        return rng.choice(fam.autos)
    return rng.choice([a for a in fam.autos if len(refs.nonunit_orbits(a)) == orbits])


def twist_props(fam: Family, alpha) -> dict:
    orbits = len(refs.nonunit_orbits(alpha))
    return {
        "group": fam.spec,
        "n": len(alpha),
        "cycle_type": refs.cycle_type(alpha),
        "orbits": orbits,
        "candidates": 2**orbits,
    }


def document(G) -> dict:
    doc = {
        "order": G.n,
        "unit": G.unit,
        "alpha": list(G.alpha.images),
        "table": [list(row) for row in G.table.entries],
    }
    if G.labels is not None:
        doc["labels"] = list(G.labels)
    return doc


def write_doc(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def check_built(G, fam: Family, alpha) -> Optional[str]:
    """The library's twist must be the reference twist, with unit 0."""
    if G.table.entries != refs.twisted_table(fam.table, alpha):
        return f"{fam.spec}: twisted table differs from reference"
    if G.alpha.images != tuple(alpha) or G.unit != 0:
        return f"{fam.spec}: twist or unit differs from reference"
    return None


# ---------------------------------------------------------------- classify

# Labeled Hom-groups with unit 0, plain groups included, and their
# isomorphism classes, for orders 1-7; 25,200 labeled tables at order 8.
LABELED = {1: 1, 2: 1, 3: 2, 4: 12, 5: 24, 6: 240, 7: 720}
CLASSES = {1: 1, 2: 1, 3: 2, 4: 5, 5: 4, 6: 5, 7: 6}
LABELED_8 = 25200
ORDER_8_SAMPLES = 100


def parse_class_tables(lines, n):
    """Tables printed by ``classify --up-to-iso``: unit-first, unlabeled."""
    tables = []
    i = 0
    while i < len(lines):
        if lines[i].startswith("class "):
            rows = {}
            for line in lines[i + 3 : i + 3 + n]:
                head, _, cells = line.partition("|")
                rows[int(head)] = tuple(int(v) for v in cells.split())
            tables.append(tuple(rows[r] for r in range(n)))
            i += 3 + n
        else:
            i += 1
    return tables


def classify_check(n):
    def check(out):
        code, text = out
        lines = text.splitlines()
        head = [
            f"order: {n}",
            "include-groups: true",
            f"structures: {LABELED[n]}",
            f"iso-classes: {CLASSES[n]}",
        ]
        if code != 0 or lines[:4] != head:
            return f"classify {n}: got {lines[:4]}, expected {head}"
        tables = parse_class_tables(lines[4:], n)
        if len(tables) != CLASSES[n]:
            return f"classify {n}: printed {len(tables)} classes"
        for t in tables:
            if refs.axiom_failures(t, t[0], 0):
                return f"classify {n}: class table fails the axioms: {t}"
        return None

    return check


def setup_classify(lib, seed, workdir) -> Inputs:
    rng = random.Random(seed)
    samples = sorted(rng.sample(range(LABELED_8), ORDER_8_SAMPLES))
    ops = [
        cli_op(
            lib,
            ["classify", "--order", str(n), "--include-groups", "--up-to-iso", "--force"],
            classify_check(n),
            {"n": n, "labeled": LABELED[n], "classes": CLASSES[n]},
        )
        for n in range(1, 8)
    ]

    def enumerate8():
        cfg = lib.classify.SearchConfig(order=8, include_groups=True, max_order_guard=8)
        return lib.classify.enumerate_hom_groups(cfg)

    def check8(groups):
        if len(groups) != LABELED_8:
            return f"order 8: {len(groups)} labeled tables, expected {LABELED_8}"
        tables = [G.table.entries for G in groups]
        if any(a >= b for a, b in zip(tables, tables[1:])):
            return "order 8: tables not strictly increasing"
        if any(G.unit != 0 or G.alpha.images != G.table.entries[0] for G in groups):
            return "order 8: unit row is not the twist"
        for i in samples:
            if refs.axiom_failures(tables[i], tables[i][0], 0):
                return f"order 8: table {i} fails the axioms"
        return None

    ops.append(Op("enumerate-8", enumerate8, check8, {"n": 8, "labeled": LABELED_8}))
    return Inputs(ops)


# ---------------------------------------------------------------- audit

# (family, non-unit twist-orbit count, relabeled twin).  The shape is fixed
# so that every seed costs about the same; the seed picks the twist with
# that orbit count, the coset subgroup and element, and the relabelings.
AUDIT_SLOTS = (
    ("zn:8", 7, False),
    ("zn:12", 6, False),
    ("zn:16", 8, False),
    ("zn:24", 12, True),
    ("zn:32", 9, False),
    ("zn:63", 12, False),
    ("zn:64", 10, False),
    ("zn:64", 11, False),
    ("dn:4", 7, False),
    ("dn:6", 7, False),
    ("dn:6", 11, False),
    ("dn:8", 9, False),
    ("dn:12", 10, True),
    ("dn:16", 13, False),
    ("dn:32", 10, False),
    ("dn:32", 11, False),
    ("zn:2*zn:4", 7, False),
    ("zn:4^2", 9, False),
    ("zn:2*dn:4", 11, False),
    ("zn:3*dn:3", 9, True),
    ("zn:3*zn:8", 13, False),
    ("zn:2*zn:16", 13, False),
    ("zn:5*zn:5", 9, False),
    ("zn:8^2", 11, True),
)


def _alpha_invariant_subgroup(table, alpha, rng):
    """The subgroup generated by the twist orbit of a random element; a few
    elements are tried in search of a proper subgroup."""
    for _ in range(8):
        g = rng.randrange(1, len(table))
        orbit = {g}
        x = alpha[g]
        while x != g:
            orbit.add(x)
            x = alpha[x]
        h = refs.closure(table, orbit)
        if len(h) < len(table):
            break
    return h


def audit_entry_ops(lib, fam, alpha, G_path, plain_path, rng, twin_path, twin_perm, list_autos):
    n = len(alpha)
    props = twist_props(fam, alpha)
    twisted = refs.twisted_table(fam.table, alpha)

    @functools.cache
    def subgroups():
        return refs.hom_subgroups(fam.table, alpha)

    def lines(rows):
        return "".join(row + "\n" for row in rows)

    ops = []
    if list_autos:
        autos = sorted(fam.autos)
        ops.append(
            cli_op(
                lib,
                ["twist", "--group", fam.operand, "--list-autos"],
                expect_text(lambda: lines(",".join(map(str, a)) for a in autos)),
                {**props, "autos": len(autos)},
            )
        )

    def check_twist(out):
        code, text = out
        if code != 0:
            return f"twist exit {code}: {text[-200:]!r}"
        doc = json.loads(text)
        if doc["table"] != [list(r) for r in twisted] or doc["alpha"] != list(alpha):
            return f"twist {fam.spec}: document differs from reference twist"
        if doc["unit"] != 0 or len(set(doc.get("labels", ()))) != n:
            return f"twist {fam.spec}: bad unit or labels"
        return None

    operand = fam.operand if fam.operand is not None else plain_path
    ops.append(
        cli_op(lib, ["twist", "--group", operand, "--auto", ",".join(map(str, alpha))], check_twist, props)
    )
    ops.append(cli_op(lib, ["verify", G_path], expect_text(lambda: f"order: {n}\nvalid: true\n"), props))

    def check_cayley(out):
        code, text = out
        if code != 0:
            return f"cayley exit {code}"
        if json.loads(text) != json.loads(Path(G_path).read_text()):
            return f"cayley {fam.spec}: document does not round-trip"
        return None

    ops.append(cli_op(lib, ["cayley", G_path, "--format", "json"], check_cayley, props))
    ops.append(
        cli_op(lib, ["subgroups", G_path], expect_text(lambda: lines(map(fmt_subset, subgroups()))), props)
    )

    H = sorted(_alpha_invariant_subgroup(fam.table, alpha, rng))
    H_csv = ",".join(map(str, H))
    for side in ("left", "right"):
        ops.append(
            cli_op(
                lib,
                ["cosets", G_path, "--subgroup", H_csv, "--side", side],
                expect_text(lambda side=side: lines(map(fmt_subset, refs.coset_blocks(twisted, H, side)))),
                {**props, "subgroup_order": len(H)},
            )
        )
    g = rng.randrange(n)
    side = rng.choice(("left", "right"))
    block = {twisted[g][h] for h in H} if side == "left" else {twisted[h][g] for h in H}
    ops.append(
        cli_op(
            lib,
            ["cosets", G_path, "--subgroup", H_csv, "--element", str(g), "--side", side],
            expect_text(lambda: fmt_subset(block) + "\n"),
            {**props, "subgroup_order": len(H)},
        )
    )

    def lagrange_text():
        rows = [f"|G| = {n}"]
        rows += [f"H={fmt_subset(h)} |H|={len(h)} index={n // len(h)}" for h in subgroups()]
        rows.append("divisors: " + ", ".join(str(d) for d in sorted({len(h) for h in subgroups()})))
        return lines(rows)

    def cauchy_text():
        rows = [f"|G| = {n}"]
        for p in refs.prime_divisors(n):
            witness = next((h for h in subgroups() if len(h) == p), None)
            rows.append(f"p={p}: {fmt_subset(witness) if witness else 'none'}")
        return lines(rows)

    def dims_text():
        dims = sorted({len(h) for h in subgroups()})
        return lines(["dims: " + ", ".join(map(str, dims)), f"|G| = {n}", "all divide |G|: true"])

    ops.append(cli_op(lib, ["lagrange", G_path], expect_text(lagrange_text), props))
    ops.append(cli_op(lib, ["cauchy", G_path], expect_text(cauchy_text), props))
    ops.append(cli_op(lib, ["hopf", G_path, "--dims"], expect_text(dims_text), props))

    if twin_path is not None:

        def twin_text():
            moved = [tuple(sorted(twin_perm[x] for x in h)) for h in subgroups()]
            moved.sort(key=lambda h: (len(h), refs.bitmask(h)))
            return lines(map(fmt_subset, moved))

        ops.append(cli_op(lib, ["subgroups", twin_path], expect_text(twin_text), {**props, "relabeled": True}))
    return ops


def relabeled_doc(doc, p):
    """The document transported along the relabeling p."""
    table, alpha, unit = refs.relabel(doc["table"], doc["alpha"], doc["unit"], p)
    out = {"order": doc["order"], "unit": unit, "alpha": alpha, "table": table}
    if "labels" in doc:
        out["labels"] = [None] * doc["order"]
        for i, label in enumerate(doc["labels"]):
            out["labels"][p[i]] = label
    return out


def setup_audit(lib, seed, workdir) -> Inputs:
    rng = random.Random(seed)
    ops, checks, listed = [], [], set()
    for idx, (spec, orbits, twin) in enumerate(AUDIT_SLOTS):
        fam = family(spec)
        alpha = pick_twist(fam, orbits, rng)
        group = fam.build(lib)
        G = lib.constructions.twist(group, alpha)
        checks.append(check_built(G, fam, alpha))
        doc = document(G)
        G_path = write_doc(workdir, f"g{idx}", doc)
        plain_path = None
        if fam.operand is None:
            plain_path = write_doc(workdir, f"plain{idx}", document(lib.constructions.twist(group, tuple(range(G.n)))))
        twin_path = twin_perm = None
        if twin:
            twin_perm = list(range(G.n))
            rng.shuffle(twin_perm)
            twin_path = write_doc(workdir, f"twin{idx}", relabeled_doc(doc, twin_perm))
        # The automorphism list depends only on the group, so each group operand is listed once.
        list_autos = fam.operand is not None and fam.operand not in listed
        listed.add(fam.operand)
        ops += audit_entry_ops(lib, fam, alpha, G_path, plain_path, rng, twin_path, twin_perm, list_autos)
    rng.shuffle(ops)
    return Inputs(ops, checks)


# ---------------------------------------------------------------- hopf

HOPF_FAMILIES = {
    8: ("zn:8", "dn:4", "zn:2*zn:4"),
    16: ("zn:16", "dn:8", "zn:4*zn:4"),
    24: ("zn:24", "dn:12", "zn:3*zn:8"),
    32: ("zn:32", "dn:16", "zn:2*zn:16"),
    48: ("zn:48", "dn:24"),
    64: ("zn:64", "dn:32", "zn:8^2"),
}
FORMAL_FAMILY = "dn:16"
FORMAL_TERMS = 12
FORMAL_OPS = 3000


def random_formal(n, rng):
    return {i: rng.choice((-1, 1)) * rng.randint(1, 9) for i in rng.sample(range(n), FORMAL_TERMS)}


def formal_op(lib, A, twisted, x, y, props) -> Op:
    FE = lib.homhopf.FormalElement
    fx, fy = FE(x), FE(y)

    def run():
        xy = A.product_of(fx, fy)
        return (
            xy,
            A.coproduct_of(xy),
            A.tensor_product_of(A.coproduct_of(fx), A.coproduct_of(fy)),
            A.antipode_of(xy),
            A.product_of(A.antipode_of(fy), A.antipode_of(fx)),
        )

    @functools.cache
    def reference():
        inverse = [row.index(0) for row in twisted]
        product = {}
        for i, ci in x.items():
            for j, cj in y.items():
                product[twisted[i][j]] = product.get(twisted[i][j], 0) + ci * cj
        product = {k: v for k, v in product.items() if v}
        antipode = {}
        for k, v in product.items():
            antipode[inverse[k]] = antipode.get(inverse[k], 0) + v
        return product, antipode

    def check(out):
        product, antipode = reference()
        xy, d1, d2, s1, s2 = out
        if xy.coeffs != product:
            return "formal: product differs from reference"
        if d1.coeffs != {(k, k): v for k, v in product.items()} or d1 != d2:
            return "formal: coproduct is not multiplicative"
        if s1.coeffs != antipode or s1 != s2:
            return "formal: antipode is not anti-multiplicative"
        return None

    return Op("formal", run, check, props, span="homhopf.formal")


def setup_hopf(lib, seed, workdir) -> Inputs:
    rng = random.Random(seed)
    ops, checks = [], []
    for n, specs in HOPF_FAMILIES.items():
        fam = family(rng.choice(specs))
        alpha = pick_twist(fam, None, rng)
        G = lib.constructions.twist(fam.build(lib), alpha)
        checks.append(check_built(G, fam, alpha))
        path = write_doc(workdir, f"hopf{n}", document(G))
        ops.append(cli_op(lib, ["hopf", path, "--check"], expect_text(lambda: "valid: true\n"), twist_props(fam, alpha)))
    # The formal sums always live on a twist of one group, so that only
    # the twist and the sums, not the group's shape, vary with the seed.
    fam = family(FORMAL_FAMILY)
    alpha = pick_twist(fam, None, rng)
    G = lib.constructions.twist(fam.build(lib), alpha)
    checks.append(check_built(G, fam, alpha))
    A = lib.homhopf.build_group_hopf(G)
    twisted = refs.twisted_table(fam.table, alpha)
    props = {**twist_props(fam, alpha), "terms": FORMAL_TERMS}
    n = len(alpha)
    formal = [
        formal_op(lib, A, twisted, random_formal(n, rng), random_formal(n, rng), props)
        for _ in range(FORMAL_OPS)
    ]
    # Spread the formal sums between the checks, so that their latencies
    # sample the whole run rather than one short stretch of it.
    chunk = -(-len(formal) // len(ops))
    mixed = []
    for i, op in enumerate(ops):
        mixed += formal[i * chunk : (i + 1) * chunk] + [op]
    return Inputs(mixed, checks)


# ---------------------------------------------------------------- screen

SCREEN_POOL = 3000
SCREEN_KINDS = ("valid", "isotope", "unit-isotope", "swap", "subsquare", "edit")
SCREEN_WEIGHTS = (10, 18, 18, 18, 18, 18)


def quaternion_table():
    """Q8 with index q + 4*s for the unit q in (1, i, j, k) and sign (-1)^s."""
    unit_products = {  # (p, q) -> (sign, r) with e_p e_q = (-1)^sign e_r
        (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def prod(a, b):
        p, sa = a % 4, a // 4
        q, sb = b % 4, b // 4
        if p == 0 or q == 0:
            s, r = 0, p + q
        else:
            s, r = unit_products[(p, q)]
        return r + 4 * ((sa + sb + s) % 2)

    return tuple(tuple(prod(a, b) for b in range(8)) for a in range(8))


def screen_groups():
    """Groups of orders 4 to 8 with all their automorphisms, by order."""
    c, d, p = refs.cyclic_table, refs.dihedral_table, refs.product_table
    tables = {
        4: [c(4), p(c(2), c(2))],
        5: [c(5)],
        6: [c(6), d(3)],
        7: [c(7)],
        8: [c(8), p(c(2), c(4)), p(p(c(2), c(2)), c(2)), d(4), quaternion_table()],
    }
    out = {}
    for n, group_tables in tables.items():
        out[n] = []
        for t in group_tables:
            autos = [
                (0,) + rest for rest in permutations(range(1, n))
                if refs.is_automorphism(t, (0,) + rest)
            ]
            out[n].append((t, autos))
    return out


def _intercalates(table, unit):
    """2x2 subsquares x y / y x that avoid the unit's row and column."""
    n = len(table)
    rest = [i for i in range(n) if i != unit]
    return [
        (i, k, j, l)
        for i in rest for k in rest if i < k
        for j in rest for l in rest if j < l
        if table[i][j] == table[k][l] and table[i][l] == table[k][j]
    ]


def screen_candidate(groups, rng):
    """A relabeled twist of a group of order 4-8, then possibly broken.

    Mutations: a general isotope (breaks the unit laws), an isotope that
    keeps the unit row and column (the twist then usually stops being
    multiplicative), a row or column swap, a swap inside a 2x2 subsquare
    (Latin and unit laws survive, associativity usually not), and a
    single-cell edit of the table or of the twist.
    """
    n = rng.randint(4, 8)
    t, autos = rng.choice(groups[n])
    alpha = rng.choice(autos)
    p = list(range(n))
    rng.shuffle(p)
    table, a, unit = refs.relabel(refs.twisted_table(t, alpha), alpha, 0, p)
    kind = rng.choices(SCREEN_KINDS, weights=SCREEN_WEIGHTS)[0]
    if kind == "isotope":
        s, u, g = (rng.sample(range(n), n) for _ in range(3))
        table = [[g[table[s[i]][u[j]]] for j in range(n)] for i in range(n)]
    elif kind == "unit-isotope":
        # x o y = a(pi^-1(a^-1(x' y'))) with x' = pi(x): the twist by a of
        # an isomorphic copy of the group, which a need not respect.
        rest = [i for i in range(n) if i != unit]
        pi = list(range(n))
        for src, dst in zip(rest, rng.sample(rest, len(rest))):
            pi[src] = dst
        pinv, ainv = [0] * n, [0] * n
        for i in range(n):
            pinv[pi[i]] = i
            ainv[a[i]] = i
        table = [[a[pinv[ainv[table[pi[i]][pi[j]]]]] for j in range(n)] for i in range(n)]
    elif kind == "subsquare" and (subsquares := _intercalates(table, unit)):
        i, k, j, l = rng.choice(subsquares)
        table[i][j], table[i][l] = table[i][l], table[i][j]
        table[k][j], table[k][l] = table[k][l], table[k][j]
    elif kind in ("swap", "subsquare"):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            table[i], table[j] = table[j], table[i]
        else:
            for row in table:
                row[i], row[j] = row[j], row[i]
    elif kind == "edit":
        if rng.random() < 1 / 3:
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], a[i]
        else:
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
    return kind, tuple(tuple(row) for row in table), tuple(a), unit


def setup_screen(lib, seed, workdir) -> Inputs:
    rng = random.Random(seed)
    groups = screen_groups()
    ops = []
    for _ in range(SCREEN_POOL):
        kind, table, alpha, unit = screen_candidate(groups, rng)
        ops.append(screen_op(lib, kind, table, alpha, unit))
    return Inputs(ops)


def screen_op(lib, kind, table, alpha, unit) -> Op:
    props = {"n": len(table), "mutation": kind}

    @functools.cache
    def reference():
        tags = refs.axiom_failures(table, alpha, unit)
        props["first_fail"] = tags[0] if tags else None
        return tags

    def run():
        return lib.core.verify(table, alpha, unit).tags()

    def check(tags):
        if tags != reference():
            return f"verify: tags {tags}, reference {reference()} on {table}, {alpha}, {unit}"
        return None

    return Op("verify", run, check, props)


WORKLOADS = {
    "classify": setup_classify,
    "audit": setup_audit,
    "hopf": setup_hopf,
    "screen": setup_screen,
}
