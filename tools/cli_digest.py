"""Digest the output of every homgroups subcommand on a fixed corpus.

The corpus is built from closed forms, not from the library: the cyclic
groups Z_k and dihedral groups D_k for k <= 16 and Z2 x Z4, each twisted
by a few automorphisms given by formula, twists of D4 and Z6 and D4
itself relabeled so that the unit is not 0, Z4 with labels that JSON must
escape, plus malformed documents and command lines that must fail.  Every command runs in this process through
homgroups.cli.main, the only name imported from the package.  For each
command the tool prints the sha256 of its stdout followed by its exit
code, then one total line over all of them.  stderr is left out, because
classify --stats writes timings there.

Documents are written to a temporary directory, and the commands run
with it as the working directory, so messages that name a path read the
same on every run.  Two source trees whose CLI output is byte-identical
print the same lines:

    PYTHONPATH=<tree>/src python tools/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from math import gcd
from pathlib import Path

from homgroups.cli import main as cli_main

ORDERS = range(1, 17)


def _cyclic(k: int) -> list[list[int]]:
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def _dihedral(k: int) -> list[list[int]]:
    """D_k on i + k*e for r^i s^e, with s r = r^-1 s, as cli's dn:k."""

    def prod(a: int, b: int) -> int:
        i, e = a % k, a // k
        j, f = b % k, b // k
        return ((i - j) % k if e else (i + j) % k) + k * (e ^ f)

    return [[prod(a, b) for b in range(2 * k)] for a in range(2 * k)]


def _z2_z4() -> list[list[int]]:
    """Z2 x Z4 on 4*i + j, the row-major order of direct_product."""
    return [
        [4 * ((a // 4 + b // 4) % 2) + (a + b) % 4 for b in range(8)] for a in range(8)
    ]


def _cyclic_autos(k: int) -> list[list[int]]:
    """x -> u*x for the two least units u and for u = -1."""
    units = [u for u in range(1, k) if gcd(u, k) == 1] or [0]  # Z_1: 0 -> 0
    return [[u * x % k for x in range(k)] for u in sorted({*units[:2], units[-1]})]


def _dihedral_autos(k: int) -> list[list[int]]:
    """r^i s^e -> r^(u*i + b*e) s^e for (u, b) = (1, 0), (1, 1), (-1, 0)."""
    maps = []
    for u, b in ((1, 0), (1, 1), (k - 1, 0)):
        m = [(u * (x % k) + b * (x // k)) % k + k * (x // k) for x in range(2 * k)]
        if m not in maps:
            maps.append(m)
    return maps


def _z2_z4_autos() -> list[list[int]]:
    """(i, j) -> (i, j), (i, 3j), (i + j, j) and (i, j + 2i)."""
    pairs = [(x // 4, x % 4) for x in range(8)]
    forms = (
        lambda i, j: (i, j),
        lambda i, j: (i, 3 * j),
        lambda i, j: (i + j, j),
        lambda i, j: (i, j + 2 * i),
    )
    return [[4 * (a % 2) + b % 4 for a, b in (f(i, j) for i, j in pairs)] for f in forms]


def _document(table: list[list[int]], alpha: list[int], labels=None, p=None) -> dict:
    """The twist of a group table with unit 0 by an automorphism alpha,
    relabeled by p, so that old element i is new p[i]; by default p is the
    identity and the unit stays 0."""
    n = len(table)
    p = p or list(range(n))
    q = sorted(range(n), key=p.__getitem__)  # q[p[i]] = i
    doc = {
        "order": n,
        "unit": p[0],
        "alpha": [p[alpha[q[i]]] for i in range(n)],
        "table": [[p[alpha[table[q[i]][q[j]]]] for j in range(n)] for i in range(n)],
    }
    if labels is not None:
        doc["labels"] = [labels[q[i]] for i in range(n)]
    return doc


def _affine(u: int, c: int, n: int) -> list[int]:
    """The relabeling i -> u*i + c mod n, which moves the unit 0 to c."""
    return [(u * i + c) % n for i in range(n)]


def _moved(p: list[int], sub: range) -> str:
    """The subgroup spec of sub's image under the relabeling p."""
    return ",".join(map(str, sorted(p[x] for x in sub)))


# Relabelings that move the unit of D4 to 5 and to 3 and that of Z6 to 4.
MOVE_D4, MOVE_D4_GROUP, MOVE_Z6 = _affine(3, 5, 8), _affine(1, 3, 8), _affine(5, 4, 6)
MOVED_GROUP = "dn4_moved_id.json"


def valid_documents() -> list[tuple[str, dict, str]]:
    """(file name, document, subgroup spec) for every twisted group.

    The subgroup is one that every twist of the family keeps: the
    multiples of k's least prime in Z_k, the rotations in D_k, and
    Z2 x 2Z4 in Z2 x Z4.
    """
    out = []
    for k in ORDERS:
        p = next((p for p in range(2, k + 1) if k % p == 0), 1)
        multiples = ",".join(map(str, range(0, k, p)))
        for alpha in _cyclic_autos(k):
            out.append((f"zn{k}_{alpha[1 % k]}.json", _document(_cyclic(k), alpha), multiples))
        rotations = ",".join(map(str, range(k)))
        labels = [f"r{i}" for i in range(k)] + [f"r{i}s" for i in range(k)]
        for m, alpha in enumerate(_dihedral_autos(k)):
            out.append((f"dn{k}_{m}.json", _document(_dihedral(k), alpha, labels), rotations))
    for m, alpha in enumerate(_z2_z4_autos()):
        out.append((f"z2z4_{m}.json", _document(_z2_z4(), alpha), "0,2,4,6"))
    # Documents whose unit is not 0, so the twist is not row 0.
    d4, d4_autos = _dihedral(4), _dihedral_autos(4)
    labels = [f"r{i}" for i in range(4)] + [f"r{i}s" for i in range(4)]
    out += [
        ("dn4_moved.json", _document(d4, d4_autos[1], labels, MOVE_D4), _moved(MOVE_D4, range(4))),
        ("zn6_moved.json", _document(_cyclic(6), _cyclic_autos(6)[1], None, MOVE_Z6),
         _moved(MOVE_Z6, range(0, 6, 2))),
        (MOVED_GROUP, _document(d4, d4_autos[0], labels, MOVE_D4_GROUP),
         _moved(MOVE_D4_GROUP, range(4))),
    ]
    return out


ESCAPED = "z4_escaped.json"


def escaped_document() -> dict:
    """Z4 with the identity twist, so a group, labeled with a quote, a
    backslash, control characters, DEL and text outside ASCII."""
    labels = ["1", 'q"', "b\\s", "\t\x01\x7f\u00e9\U0001f600"]
    return {"order": 4, "unit": 0, "alpha": [0, 1, 2, 3], "table": _cyclic(4), "labels": labels}


_LOOP5 = [  # a Latin square with unit 0 that is no group
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _z3_with(**changes) -> bytes:
    """The plain Z3 document with some keys changed, or dropped when None."""
    doc = {"order": 3, "unit": 0, "alpha": [0, 1, 2], "table": _cyclic(3), **changes}
    return json.dumps({key: v for key, v in doc.items() if v is not None}).encode()


def other_documents() -> dict[str, bytes]:
    """Documents that fail to parse, to load or to verify, and the group
    (Z2)^5, whose automorphism search is over twist's size guard."""
    z2_5 = [[i ^ j for j in range(32)] for i in range(32)]
    # Z4 with rows 1 and 3 of column 3 swapped: row 1 repeats 2 at 1 and 3
    row_repeat = [[*row[:3], (3 - i) % 4] for i, row in enumerate(_cyclic(4))]
    col_repeat = [list(col) for col in zip(*row_repeat)]
    return {
        "bad_json.json": b'{"order": 3,',
        "bad_utf8.json": b'{"order": \xff}',
        "bad_array.json": json.dumps([_cyclic(3)]).encode(),
        "bad_bool.json": _z3_with(table=[[0, 1, 2], [1, True, 0], [2, 0, 1]]),
        "bad_float.json": _z3_with(alpha=[0, 1.0, 2]),
        "bad_missing.json": _z3_with(alpha=None),
        "bad_unknown.json": _z3_with(name="z3"),
        "bad_order.json": _z3_with(order=0),
        "bad_unit.json": _z3_with(unit=3),
        "bad_alpha.json": _z3_with(alpha=[0, 1, 1]),
        "bad_shape.json": _z3_with(table=[[0, 1], [1, 0], [2, 2]]),
        "bad_range.json": _z3_with(table=[[0, 1, 2], [1, 2, 3], [2, 0, 1]]),
        "bad_labels.json": _z3_with(labels=["a", "b"]),
        "bad_latin.json": _z3_with(table=[[0, 1, 2], [1, 1, 0], [2, 0, 1]]),
        "bad_twist.json": _z3_with(alpha=[0, 2, 1]),
        "bad_loop.json": _z3_with(order=5, alpha=list(range(5)), table=_LOOP5),
        # unit row 0,1,2 equal to the twist, unit column 0,2,1 not
        "bad_unit_col.json": _z3_with(table=[[(j - i) % 3 for j in range(3)] for i in range(3)]),
        "bad_latin_row.json": _z3_with(order=4, alpha=list(range(4)), table=row_repeat),
        "bad_latin_col.json": _z3_with(order=4, alpha=list(range(4)), table=col_repeat),
        "z2e5.json": json.dumps(_document(z2_5, list(range(32)))).encode(),
    }


def commands() -> list[list[str]]:
    """Every command line, in a fixed order; paths are relative."""
    cmds: list[list[str]] = []
    for name, doc, sub in valid_documents():
        last = str(doc["order"] - 1)
        cmds += [
            ["verify", name],
            ["subgroups", name],
            ["lagrange", name],
            ["cauchy", name],
            ["hopf", name, "--check"],
            ["hopf", name, "--dims"],
            ["cayley", name],
            ["cayley", name, "--format", "csv"],
            ["cayley", name, "--format", "json"],
            ["cosets", name, "--subgroup", sub],
            ["cosets", name, "--subgroup", sub, "--side", "right"],
            ["cosets", name, "--subgroup", sub, "--element", last],
            ["cosets", name, "--subgroup", "1"],
        ]
    for k in ORDERS:
        for spec, autos in ((f"zn:{k}", _cyclic_autos(k)), (f"dn:{k}", _dihedral_autos(k))):
            cmds.append(["twist", "--group", spec, "--list-autos"])
            cmds += [["twist", "--group", spec, "--auto", ",".join(map(str, a))] for a in autos]
        # s is its own inverse, r = 1 is not: r^-1 = r^(k-1)
        cmds.append(["twist", "--group", f"dn:{k}", "--conjugate", str(k)])
        cmds.append(["twist", "--group", f"dn:{k}", "--conjugate", "1"])
    # The automorphisms of D4 carried to the group whose unit is 3, and
    # the twisted documents whose unit is not 0, which are no groups
    p = MOVE_D4_GROUP
    q = sorted(range(8), key=p.__getitem__)
    for alpha in _dihedral_autos(4):
        moved = [p[alpha[q[x]]] for x in range(8)]  # p alpha p^-1
        cmds.append(["twist", "--group", MOVED_GROUP, "--auto", ",".join(map(str, moved))])
    cmds.append(["twist", "--group", MOVED_GROUP, "--list-autos"])
    for name, n in (("dn4_moved.json", 8), ("zn6_moved.json", 6)):
        cmds.append(["twist", "--group", name, "--auto", ",".join(map(str, range(n)))])
    # z2z4_0.json has the identity twist, so it is a group; z2z4_1.json is not
    for alpha in _z2_z4_autos():
        cmds.append(["twist", "--group", "z2z4_0.json", "--auto", ",".join(map(str, alpha))])
    cmds += [
        ["twist", "--group", "z2z4_0.json", "--list-autos"],
        ["twist", "--group", "z2z4_1.json", "--auto", "0,1,2,3,4,5,6,7"],
        # dn5_0.json has the identity twist, so it is the group D5, not abelian
        ["twist", "--group", "dn5_0.json", "--conjugate", "2"],
        ["twist", "--group", "zn:6", "--auto", "1,0,2,3,4,5"],
        ["twist", "--group", "zn:4", "--auto", "0,1"],
        ["twist", "--group", "zn:3", "--auto", "0,1,1"],
        ["twist", "--group", "zn:3", "--auto", "0,x,2"],
        ["twist", "--group", "zn:x", "--list-autos"],
        ["twist", "--group", "dn:0", "--list-autos"],
        ["twist", "--group", "zn:5", "--conjugate", "5"],
        ["twist", "--group", "z2e5.json", "--list-autos"],
        # carriers of 1,025 and 1,026 elements, just over twist's operand guard
        ["twist", "--group", "zn:1025", "--conjugate", "0"],
        ["twist", "--group", "dn:513", "--auto", "0,1"],
    ]
    for n in range(1, 7):
        for flags in ([], ["--include-groups"]):
            cmds.append(["classify", "--order", str(n), *flags])
            cmds.append(["classify", "--order", str(n), "--up-to-iso", *flags])
    cmds += [
        ["classify", "--order", "4", "--stats"],
        ["classify", "--order", "3", "--include-groups", "--emit", "emitted"],
        ["classify", "--order", "7", "--up-to-iso", "--force"],
        ["classify", "--order", "8", "--up-to-iso", "--force"],
        ["classify", "--order", "8", "--up-to-iso", "--include-groups", "--force"],
        ["classify", "--order", "7", "--force"],
        ["classify", "--order", "7", "--include-groups", "--force"],
        ["classify", "--order", "7"],
        ["classify", "--order", "0"],
    ]
    for name in other_documents():
        cmds += [["verify", name], ["subgroups", name], ["hopf", name, "--check"]]
    cmds += [
        ["verify", "missing.json"],
        ["cayley", "z2e5.json", "--format", "csv"],
        ["cosets", "zn6_1.json", "--subgroup", "0,1"],
        ["cosets", "zn6_1.json", "--subgroup", "0,a"],
        [],
        ["verify"],
        ["classify"],
        ["hopf", "zn6_1.json"],
        ["cayley", "zn6_1.json", "--format", "xml"],
        ["unknown-command"],
        ["cayley", ESCAPED, "--format", "json"],
        ["twist", "--group", ESCAPED, "--auto", "0,3,2,1"],
    ]
    return cmds


def run(argv: list[str]) -> tuple[str, int]:
    """stdout and exit code of one command; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return out.getvalue(), code


def outputs(workdir: Path) -> list[tuple[list[str], str, int]]:
    """(argv, stdout, exit code) of every command, run inside workdir."""
    for name, doc, _ in valid_documents():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, data in other_documents().items():
        (workdir / name).write_bytes(data)
    (workdir / ESCAPED).write_text(json.dumps(escaped_document()), encoding="utf-8")
    here = os.getcwd()
    os.chdir(workdir)
    try:
        return [(argv, *run(argv)) for argv in commands()]
    finally:
        os.chdir(here)


def digest_lines(results: list[tuple[list[str], str, int]]) -> list[str]:
    """One "<sha256>  homgroups <args>" line per command, then the total."""
    lines = []
    for argv, stdout, code in results:
        digest = hashlib.sha256(f"{stdout}exit {code}\n".encode()).hexdigest()
        lines.append(f"{digest}  {shlex.join(['homgroups', *argv])}")
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"{total}  total of {len(results)} commands"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(outputs(Path(tmp)))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
