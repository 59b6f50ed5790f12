"""Tests of the benchmark's own machinery: the reference axiom checker and
the span accounting.  Run with ``python3 -m pytest perfbench``."""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import harness
import refs
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def lib():
    return harness.import_library(SRC)


def tags_of(lib, table, alpha, unit=0):
    return lib.core.verify(table, alpha, unit).tags()


@pytest.mark.parametrize("name", ["z3a", "z6a", "d3a", "z5a"])
def test_reference_accepts_stock_tables(lib, name):
    G = lib.constructions.fixture(name)
    assert refs.axiom_failures(G.table.entries, G.alpha.images, G.unit) == ()
    assert tags_of(lib, G.table.entries, G.alpha.images, G.unit) == ()


# A non-associative loop of order 5: every element squares to the unit 0.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def broken(tag):
    """A hand-broken (table, alpha) on which the axiom ``tag`` fails."""
    z6 = [list(row) for row in (
        (0, 5, 4, 3, 2, 1),
        (5, 4, 3, 2, 1, 0),
        (4, 3, 2, 1, 0, 5),
        (3, 2, 1, 0, 5, 4),
        (2, 1, 0, 5, 4, 3),
        (1, 0, 5, 4, 3, 2),
    )]
    alpha = list(z6[0])
    if tag == "latin-row":
        z6[2][3] = z6[2][4]
    elif tag == "latin-col":
        z6[2][3], z6[2][4] = z6[2][4], z6[2][3]
    elif tag == "unit-fixed":
        alpha = [1, 0, 4, 3, 2, 5]
    elif tag == "unit-row":
        z6[0], z6[1] = z6[1], z6[0]
    elif tag == "unit-col":
        for row in z6:
            row[0], row[1] = row[1], row[0]
    elif tag == "twist-multiplicative":
        alpha = [0, 2, 1, 3]  # not an automorphism of Z4
        return refs.twisted_table(refs.cyclic_table(4), alpha), alpha
    elif tag == "hom-associativity":
        return LOOP5, list(range(5))
    elif tag == "inverse-missing":
        z6[3] = [1, 2, 3, 4, 5, 1]
    elif tag == "inverse-asymmetric":
        b = z6[1].index(0)
        z6[b][1] = 3
    return z6, alpha


@pytest.mark.parametrize("tag", refs.AXIOM_TAGS)
def test_reference_agrees_on_hand_broken_tables(lib, tag):
    table, alpha = broken(tag)
    expected = refs.axiom_failures(table, alpha, 0)
    assert tag in expected
    assert tags_of(lib, table, alpha) == expected


def test_reference_agrees_on_screen_candidates(lib):
    rng = random.Random(0)
    groups = workloads.screen_groups()
    kinds = set()
    for _ in range(300):
        kind, table, alpha, unit = workloads.screen_candidate(groups, rng)
        kinds.add(kind)
        assert tags_of(lib, table, alpha, unit) == refs.axiom_failures(table, alpha, unit)
    assert kinds == set(workloads.SCREEN_KINDS)


def test_span_self_times_add_up_to_traced_wall(lib, tmp_path):
    G = lib.constructions.twist(lib.constructions.dihedral_group(4), (0, 3, 2, 1, 4, 7, 6, 5))
    path = workloads.write_doc(tmp_path, "d4", workloads.document(G))
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        tracer.op = "pass"
        root = tracer.begin("pass")
        for op, argv in enumerate((["lagrange", path], ["hopf", path, "--check"], ["cauchy", path])):
            tracer.op = op
            with redirect_stdout(io.StringIO()):
                assert lib.cli.main(argv) == 0
        tracer.end(root)
    finally:
        tracer.uninstall()
    s = tracer.spans
    wall = s[root][spans.END] - s[root][spans.START]
    assert sum(spans.self_times(s)) == pytest.approx(wall, rel=1e-9, abs=1e-12)
    names = {row[spans.NAME] for row in s}
    assert {"cli.main", "subgroups.lagrange_check", "subgroups.enumerate", "homhopf.verify", "core.verify"} <= names
    for row in s[1:]:
        parent = s[row[spans.PARENT]]
        assert parent[spans.START] <= row[spans.START] <= row[spans.END] <= parent[spans.END]
        assert row[spans.OP] in (0, 1, 2)


def test_uninstall_restores_the_library(lib):
    before = {m: dict(vars(getattr(lib, m))) for m in spans.MODULES}
    tracer = spans.Tracer()
    tracer.install(lib)
    assert lib.core.verify is not before["core"]["verify"]
    assert lib.cli.verify is lib.core.verify
    tracer.uninstall()
    for m in spans.MODULES:
        assert dict(vars(getattr(lib, m))) == before[m]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run("screen", 0, 0.2, trace, ROOT)
        assert result["correct"] and result["failed"] == 0
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in spec[key]}
