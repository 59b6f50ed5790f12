"""Command-line surface: verify, classify, subgroups, cosets, lagrange,
cauchy, twist, hopf, cayley.

Documents are flat JSON objects with keys order, unit, alpha, table and
optional labels, zero-based throughout.  All output is byte-deterministic.
Exit status is 0 exactly when the requested check passed; any nonzero exit
prints a machine-parsable ``error: <tag>`` as the last line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import classify as _classify
from . import constructions as _constructions
from . import homhopf as _homhopf
from . import subgroups as _subgroups
from .core import (
    AxiomReport,
    CayleyTable,
    HomGroup,
    InvalidStructureError,
    Permutation,
    _checked_table,
    verify,
)
from .subgroups import format_subset

TAG_PARSE = "parse-error"
TAG_INVALID = "invalid-structure"
TAG_DOMAIN = "domain-error"
TAG_USAGE = "usage-error"
TAG_GUARD = "guard-refused"
TAG_NOT_AUTOMORPHISM = "not-automorphism"

# Most generator-image tuples `twist --list-autos` may try without --force.
LIST_AUTOS_GUARD = 10**6
# Largest zn:K or dn:K carrier `twist --group` builds without --force.  Time
# and memory grow with its square: on a 2-core machine `--conjugate 0` took
# 0.1 s and 30 MB at 512 elements, 0.3-0.6 s and 73-99 MB at 1,024 (zn:1024,
# dn:512), and 1.4 s and 250 MB at 2,048.
_OPERAND_GUARD = 1024

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


class DocumentError(ValueError):
    """Malformed document: bad JSON or bad shape."""


class CliFailure(Exception):
    """Abort command with a message and tag; the exit code is EXIT_ERROR."""

    def __init__(self, message: str, tag: str):
        super().__init__(message)
        self.tag = tag


_DOCUMENT_KEYS = {"order", "unit", "alpha", "table", "labels"}


def parse_document(path: str) -> dict:
    """Read, shape- and range-check a Hom-group document; no axiom checking here."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: document must be a JSON object")
    unknown = sorted(set(doc) - _DOCUMENT_KEYS)
    if unknown:
        raise DocumentError(f"{path}: unknown keys {unknown}")
    for key in ("order", "unit", "alpha", "table"):
        if key not in doc:
            raise DocumentError(f"{path}: missing key {key!r}")
    # JSON true/false load as bool, a subclass of int: test the exact type.
    order = doc["order"]
    if type(order) is not int or order < 1:
        raise DocumentError(f"{path}: order must be a positive integer")
    if type(doc["unit"]) is not int:
        raise DocumentError(f"{path}: unit must be an integer")
    if not 0 <= doc["unit"] < order:
        raise DocumentError(f"{path}: unit must lie in 0..{order - 1}")
    alpha = doc["alpha"]
    if not isinstance(alpha, list) or len(alpha) != order or not all(
        type(v) is int for v in alpha
    ):
        raise DocumentError(f"{path}: alpha must be a list of {order} integers")
    if sorted(alpha) != list(range(order)):
        raise DocumentError(f"{path}: alpha must be a permutation of 0..{order - 1}")
    table = doc["table"]
    # The entry tests are set operations, which run at C speed; the table
    # has at least one entry, so its set of types is never empty.
    if (
        not isinstance(table, list)
        or len(table) != order
        or not all(isinstance(row, list) and len(row) == order for row in table)
        or set(map(type, chain.from_iterable(table))) != {int}
    ):
        raise DocumentError(f"{path}: table must be a {order}x{order} integer matrix")
    if not set(chain.from_iterable(table)) <= set(range(order)):
        raise DocumentError(f"{path}: table entries must lie in 0..{order - 1}")
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != order
        or not all(isinstance(s, str) for s in labels)
    ):
        raise DocumentError(f"{path}: labels must be a list of {order} strings")
    return doc


def _document_table(doc: dict) -> CayleyTable:
    """The table of a document that parse_document accepted: it has checked
    the shape, types and range, so the rows are not scanned again."""
    return _checked_table(tuple(map(tuple, doc["table"])))


def document_to_hom_group(doc: dict) -> HomGroup:
    """The verified structure of a document that parse_document accepted."""
    return HomGroup(_document_table(doc), doc["alpha"], unit=doc["unit"], labels=doc.get("labels"))


def hom_group_to_document(G: HomGroup) -> dict:
    doc = {
        "order": G.n,
        "unit": G.unit,
        "alpha": list(G.alpha.images),
        "table": [list(row) for row in G.table.entries],
    }
    if G.labels is not None:
        doc["labels"] = list(G.labels)
    return doc


def dumps_document(doc: dict) -> str:
    """json.dumps(doc, indent=2), byte for byte, for a document as
    hom_group_to_document builds it.

    With indent set, json.dumps runs its pure-Python encoder, so the text
    is joined here instead.  Integers print as str does, and each label
    goes through json.dumps, whose escapes come from the C encoder.
    """

    def block(items: Iterable[str], pad: str = "\n  ") -> str:
        return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]"

    rows = (block(map(str, row), "\n    ") for row in doc["table"])
    fields = {**doc, "alpha": block(map(str, doc["alpha"])), "table": block(rows)}
    if "labels" in doc:
        fields["labels"] = block(map(json.dumps, doc["labels"]))
    return "{" + ",".join(f'\n  "{key}": {text}' for key, text in fields.items()) + "\n}"


def load_hom_group(path: str) -> HomGroup:
    """Parse a document and construct the verified structure it describes."""
    doc = parse_document(path)
    try:
        return document_to_hom_group(doc)
    except InvalidStructureError as exc:
        tags = ", ".join(exc.report.tags())
        raise CliFailure(
            f"{path}: document does not describe a Hom-group ({tags})", TAG_INVALID
        ) from None


def print_report(report: AxiomReport) -> int:
    """Print the report, ending a failed one with its error tag, and return
    the exit code."""
    print(f"valid: {'true' if report.valid else 'false'}")
    for tag, witness in report.violations:
        print(f"violation: {tag} ({','.join(map(str, witness))})")
    if report.valid:
        return EXIT_OK
    print(f"error: {TAG_INVALID}")
    return EXIT_CHECK_FAILED


def render_text(G: HomGroup) -> str:
    """Unit-first bordered table, using labels when present."""
    n = G.n
    display = [G.unit] + [i for i in range(n) if i != G.unit]
    names = [G.label(i) for i in range(n)]
    w = max(len(s) for s in names + ["*"])
    pad = lambda s: s.ljust(w)
    header = pad("*") + " | " + " ".join(pad(names[j]) for j in display)
    sep = "-" * (w + 1) + "+" + "-" * (len(header) - w - 2)
    lines = [header.rstrip(), sep]
    t = G.table.entries
    for i in display:
        cells = " ".join(pad(names[t[i][j]]) for j in display)
        lines.append((pad(names[i]) + " | " + cells).rstrip())
    return "\n".join(lines)


def render_csv(G: HomGroup) -> str:
    return "\n".join(",".join(map(str, row)) for row in G.table.entries) + "\n"


def _parse_subset(spec: str) -> list[int]:
    try:
        return [int(part) for part in spec.split(",")]
    except ValueError:
        raise CliFailure(f"bad subset syntax {spec!r}: comma-separated indices expected", TAG_DOMAIN)


def _parse_perm_spec(spec: str, n: int) -> Permutation:
    images = _parse_subset(spec)
    if len(images) != n:
        raise CliFailure(f"map has {len(images)} images, carrier has {n}", TAG_DOMAIN)
    try:
        return Permutation(tuple(images))
    except ValueError as exc:
        raise CliFailure(f"bad map: {exc}", TAG_DOMAIN)


def _load_group_operand(args: argparse.Namespace) -> HomGroup:
    """Group operand for twisting: zn:k, dn:k, or a document path whose
    structure has the identity twist, which makes it a group.  Without
    --force, a zn:k or dn:k carrier over _OPERAND_GUARD is refused before
    its table is built."""
    spec = args.group
    if spec.startswith("zn:") or spec.startswith("dn:"):
        kind, _, num = spec.partition(":")
        try:
            k = int(num)
        except ValueError:
            raise CliFailure(f"bad group spec {spec!r}", TAG_DOMAIN)
        size = k if kind == "zn" else 2 * k
        if size > _OPERAND_GUARD and not args.force:
            msg = f"{spec} has {size} elements, over the guard of {_OPERAND_GUARD}"
            raise CliFailure(f"{msg}; pass --force to build it", TAG_GUARD)
        return _constructions.cyclic_group(k) if kind == "zn" else _constructions.dihedral_group(k)
    G = load_hom_group(spec)
    if not G.alpha.is_identity:
        raise CliFailure(
            f"{spec}: twisting needs a plain group, but the document's twist is not the identity",
            TAG_DOMAIN,
        )
    return G


def cmd_verify(args: argparse.Namespace) -> int:
    doc = parse_document(args.path)
    report = verify(_document_table(doc), doc["alpha"], doc["unit"])
    print(f"order: {doc['order']}")
    return print_report(report)


def cmd_classify(args: argparse.Namespace) -> int:
    guard = args.order if args.force else _classify.ORDER_GUARD
    stats = _classify.ClassifyStats()
    if args.up_to_iso:
        report = _classify.classify_order(args.order, args.include_groups, guard, stats)
        shown, kind = report.representatives, "class"
        raw, class_count = report.raw_count, report.class_count
    else:
        # One build of the groups serves the listing and the class count:
        # a class is a group with one conjugacy class of its automorphisms.
        cfg = _classify.SearchConfig(args.order, args.include_groups, guard)
        pairs = _classify._group_pairs(cfg, stats)
        shown, kind = _classify._listing(pairs, args.include_groups, stats), "structure"
        raw, class_count = len(shown), len(_classify._class_twists(pairs, args.include_groups))
    print(f"order: {args.order}")
    print(f"include-groups: {'true' if args.include_groups else 'false'}")
    print(f"structures: {raw}")
    print(f"iso-classes: {class_count}")
    for idx, G in enumerate(shown, start=1):
        print(f"{kind} {idx}:")
        print(render_text(G))
    if args.emit is not None:
        out = Path(args.emit)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for idx, G in enumerate(shown, start=1):
                name = f"homgroup_order{args.order}_{idx:03d}.json"
                (out / name).write_text(dumps_document(hom_group_to_document(G)) + "\n")
        except OSError as exc:
            raise CliFailure(f"cannot write to {args.emit}: {exc.strerror}", TAG_DOMAIN) from None
        print(f"emitted: {len(shown)} documents to {args.emit}")
    if args.stats:
        print(json.dumps(vars(stats), sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_subgroups(args: argparse.Namespace) -> int:
    G = load_hom_group(args.path)
    for handle in _subgroups.enumerate_hom_subgroups(G):
        print(format_subset(handle.members))
    return EXIT_OK


def cmd_cosets(args: argparse.Namespace) -> int:
    G = load_hom_group(args.path)
    H = _parse_subset(args.subgroup)
    if args.element is not None:
        print(format_subset(_subgroups.coset(G, H, args.element, args.side).members))
    else:
        for block in _subgroups.coset_partition(G, H, args.side):
            print(format_subset(block.members))
    return EXIT_OK


def cmd_lagrange(args: argparse.Namespace) -> int:
    G = load_hom_group(args.path)
    report = _subgroups.lagrange_check(G)
    print(f"|G| = {G.n}")
    for entry in report.entries:
        print(
            f"H={format_subset(entry.subgroup.members)} "
            f"|H|={entry.order} index={entry.index}"
        )
    print("divisors: " + ", ".join(map(str, report.divisors)))
    return EXIT_OK


def cmd_cauchy(args: argparse.Namespace) -> int:
    G = load_hom_group(args.path)
    report = _subgroups.cauchy_search(G)
    print(f"|G| = {G.n}")
    for entry in report.entries:
        witness = format_subset(entry.witness.members) if entry.witness is not None else "none"
        print(f"p={entry.prime}: {witness}")
    return EXIT_OK


def cmd_twist(args: argparse.Namespace) -> int:
    G = _load_group_operand(args)
    if args.list_autos:
        size = _constructions._search_size(G)
        if size > LIST_AUTOS_GUARD and not args.force:
            msg = f"automorphism search may try {size} generator images, over the guard"
            raise CliFailure(f"{msg} of {LIST_AUTOS_GUARD}; pass --force to run it", TAG_GUARD)
        for p in _constructions.automorphisms_of(G):
            print(",".join(map(str, p.images)))
        return EXIT_OK
    if args.conjugate is not None:
        alpha = _constructions.inner_automorphism(G, args.conjugate)
    else:
        alpha = _parse_perm_spec(args.auto, G.n)
    try:
        twisted = _constructions.twist(G, alpha)
    except _constructions.NotAutomorphismError as exc:
        g, k = exc.witness
        raise CliFailure(
            f"map is not an automorphism: witness pair ({g},{k})", TAG_NOT_AUTOMORPHISM
        )
    print(dumps_document(hom_group_to_document(twisted)))
    return EXIT_OK


def cmd_hopf(args: argparse.Namespace) -> int:
    G = load_hom_group(args.path)
    if args.dims:
        dims = _homhopf.sub_hopf_dims(G)
        print("dims: " + ", ".join(map(str, dims)))
        print(f"|G| = {G.n}")
        ok = all(G.n % d == 0 for d in dims)
        print(f"all divide |G|: {'true' if ok else 'false'}")
        return EXIT_OK
    return print_report(_homhopf.verify_hom_hopf(_homhopf.build_group_hopf(G)))


def cmd_cayley(args: argparse.Namespace) -> int:
    G = load_hom_group(args.path)
    if args.format == "text":
        print(render_text(G))
    elif args.format == "csv":
        sys.stdout.write(render_csv(G))
    else:
        print(dumps_document(hom_group_to_document(G)))
    return EXIT_OK


# One parser per process, built on the first call: parse_args keeps no state between calls.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homgroups", description="Exact toolkit for finite Hom-groups."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check every axiom on a document")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="enumerate Hom-groups of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--include-groups", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--force", action="store_true", help="override the order guard")
    p.add_argument("--emit", metavar="DIR", help="write shown structures as documents")
    p.add_argument("--stats", action="store_true", help="write search counters as JSON to stderr")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("subgroups", help="list all Hom-subgroups")
    p.add_argument("path")
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("cosets", help="one coset, or the full partition")
    p.add_argument("path")
    p.add_argument("--subgroup", required=True, metavar="CSV")
    p.add_argument("--element", type=int, default=None)
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("lagrange", help="divisibility and partition audit")
    p.add_argument("path")
    p.set_defaults(func=cmd_lagrange)

    p = sub.add_parser("cauchy", help="search prime-order Hom-subgroups")
    p.add_argument("path")
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser("twist", help="twist a group by an automorphism")
    p.add_argument("--group", required=True, metavar="zn:K|dn:K|PATH")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--auto", metavar="CSV", help="image list of the automorphism")
    mode.add_argument("--conjugate", type=int, metavar="S", help="conjugation by element S")
    mode.add_argument("--list-autos", action="store_true")
    p.add_argument(
        "--force", action="store_true", help="override the zn:K/dn:K and --list-autos size guards"
    )
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("hopf", help="Hopf-algebra checks on the span")
    p.add_argument("path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--dims", action="store_true")
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("cayley", help="render the table")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_cayley)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        print(f"error: {TAG_USAGE}")
        return EXIT_ERROR
    try:
        return args.func(args)
    except CliFailure as exc:
        print(str(exc))
        print(f"error: {exc.tag}")
        return EXIT_ERROR
    except ValueError as exc:
        if isinstance(exc, DocumentError):
            tag = TAG_PARSE
        elif isinstance(exc, _classify.OrderGuardError):
            tag = TAG_GUARD
        else:
            tag = TAG_DOMAIN
        print(str(exc))
        print(f"error: {tag}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
