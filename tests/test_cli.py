import contextlib
import io
import json
import os
import re
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homgroups
from homgroups import (
    SearchConfig,
    cyclic_group,
    direct_product,
    enumerate_hom_groups,
    fixture,
    relabel,
)
from homgroups.cli import (
    build_parser,
    dumps_document,
    document_to_hom_group,
    hom_group_to_document,
    main,
    parse_document,
    render_text,
)
from oracles import dihedral_automorphisms_by_formula, hom_group_counts_by_automorphisms

Z3A_TEXT = """\
* | 1 a b
--+------
1 | 1 b a
a | b a 1
b | a 1 b"""

CLASSIFY3_TEXT = """\
order: 3
include-groups: false
structures: 1
iso-classes: 1
structure 1:
* | 0 1 2
--+------
0 | 0 2 1
1 | 2 1 0
2 | 1 0 2
"""


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_document(hom_group_to_document(fixture(name))) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerifyCommand:
    def test_valid_document(self, tmp_path, capsys):
        code, out = run(capsys, "verify", write_fixture(tmp_path, "z6a"))
        assert code == 0
        assert out == "order: 6\nvalid: true\n"

    def test_corrupted_cell_flags_column(self, tmp_path, capsys):
        doc = hom_group_to_document(fixture("z6a"))
        doc["table"][2][3], doc["table"][2][4] = doc["table"][2][4], doc["table"][2][3]
        path = tmp_path / "bad.json"
        path.write_text(dumps_document(doc))
        code, out = run(capsys, "verify", str(path))
        assert code == 1
        assert "violation: latin-col (3,2,3)" in out
        assert out.rstrip().splitlines()[-1] == "error: invalid-structure"

    def test_empty_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        code, out = run(capsys, "verify", str(path))
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: parse-error"

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        doc = hom_group_to_document(fixture("z3a"))
        doc["extra"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", str(path))
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: parse-error"

    def test_missing_file(self, capsys):
        code, out = run(capsys, "verify", "/nonexistent/x.json")
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: parse-error"

    def test_non_utf8_document_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"order": 1, "labels": ["\xe9"]}')
        code, out = run(capsys, "verify", str(path))
        assert code == 2
        assert out.rstrip().splitlines() == [
            f"{path}: not valid UTF-8 at byte 25",
            "error: parse-error",
        ]

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out = run(capsys, "verify", str(path))
        assert code == 2
        assert out.rstrip().splitlines() == [
            f"{path}: JSON nested too deeply",
            "error: parse-error",
        ]

    @pytest.mark.parametrize(
        "key, value", [("order", True), ("unit", False), ("alpha", [False]), ("table", [[False]])]
    )
    def test_json_booleans_are_not_indices(self, tmp_path, capsys, key, value):
        # true/false load as bool, which Python treats as the ints 1 and 0
        doc = {"order": 1, "unit": 0, "alpha": [0], "table": [[0]]}
        doc[key] = value
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", str(path))
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: parse-error"


def _out_of_range_entry(doc):
    doc["table"][1][2] = 3


def _out_of_range_unit(doc):
    doc["unit"] = 3


def _non_bijective_alpha(doc):
    doc["alpha"] = [0, 0, 1]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_out_of_range_entry, "table entries must lie in 0..2"),
        (_out_of_range_unit, "unit must lie in 0..2"),
        (_non_bijective_alpha, "alpha must be a permutation of 0..2"),
    ],
    ids=["table-entry", "unit", "alpha"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "PATH"],
        ["subgroups", "PATH"],
        ["cosets", "PATH", "--subgroup", "0"],
        ["lagrange", "PATH"],
        ["cauchy", "PATH"],
        ["hopf", "PATH", "--check"],
        ["hopf", "PATH", "--dims"],
        ["cayley", "PATH"],
        ["twist", "--group", "PATH", "--list-autos"],
    ],
    ids=lambda c: " ".join(c),
)
def test_out_of_range_document_is_a_parse_error(tmp_path, capsys, command, corrupt, message):
    # Each document passes the shape checks; only the range checks stop it before the library.
    doc = hom_group_to_document(cyclic_group(3))
    corrupt(doc)
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, *(str(path) if arg == "PATH" else arg for arg in command))
    assert code == 2
    assert out == f"{path}: {message}\nerror: parse-error\n"


class TestClassifyCommand:
    def test_order_three_golden(self, capsys):
        code, out = run(capsys, "classify", "--order", "3")
        assert code == 0
        assert out == CLASSIFY3_TEXT

    def test_order_two_empty(self, capsys):
        code, out = run(capsys, "classify", "--order", "2")
        assert code == 0
        assert "structures: 0" in out

    @pytest.mark.parametrize("flags", [(), ("--include-groups",)])
    def test_structure_count_matches_the_listing(self, capsys, flags):
        # The structures line is the length of the listing printed below it.
        code, out = run(capsys, "classify", "--order", "4", *flags)
        assert code == 0
        listed = sum(line.startswith("structure ") for line in out.splitlines())
        assert f"structures: {listed}\n" in out and listed == (12 if flags else 8)

    @pytest.mark.parametrize("n", [4, 6, 7])
    @pytest.mark.parametrize("include_groups", [False, True])
    def test_labeled_header_matches_the_oracle(self, capsys, n, include_groups):
        flags = ["--include-groups"] if include_groups else []
        code, out = run(capsys, "classify", "--order", str(n), "--force", *flags)
        assert code == 0
        labeled, classes = hom_group_counts_by_automorphisms(n)[include_groups]
        assert out.splitlines()[2:4] == [f"structures: {labeled}", f"iso-classes: {classes}"]

    def test_deterministic(self, capsys):
        _, first = run(capsys, "classify", "--order", "4", "--up-to-iso")
        _, second = run(capsys, "classify", "--order", "4", "--up-to-iso")
        assert first == second

    def test_stats_line_on_stderr(self, capsys):
        _, plain = run(capsys, "classify", "--order", "4", "--include-groups", "--up-to-iso")
        code = main(["classify", "--order", "4", "--include-groups", "--up-to-iso", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == plain
        lines = captured.err.splitlines()
        assert len(lines) == 1
        stats = json.loads(lines[0])
        phases = ("search_s", "automorphisms_s", "twist_s", "reduce_s")
        counts = ("group_tables", "automorphisms", "structures")
        assert set(stats) == {*phases, *counts, "isomorphism_calls", "canonical_form_calls"}
        # --up-to-iso reads the classes off the groups: no labeled table is
        # built or twisted.  The automorphism searches run on Z4 and Z2^2 only.
        assert stats["group_tables"] == stats["structures"] == 0
        assert stats["twist_s"] == 0.0
        assert stats["automorphisms"] == 2 + 6
        assert stats["canonical_form_calls"] == 5
        # The group dedupe: Z4 and Z2^2 differ in element orders, so no search runs.
        assert stats["isomorphism_calls"] == 0
        assert all(stats[k] >= 0 for k in phases)

    def test_stats_line_of_the_labeled_listing(self, capsys):
        _, plain = run(capsys, "classify", "--order", "4", "--include-groups")
        code = main(["classify", "--order", "4", "--include-groups", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == plain
        lines = captured.err.splitlines()
        assert len(lines) == 1
        stats = json.loads(lines[0])
        # Z4 has 3!/2 = 3 labeled tables and Z2^2 has 3!/6 = 1; each is
        # twisted by its 2 or 6 automorphisms, 3*2 + 1*6 = 12 structures.
        assert stats["group_tables"] == 4
        assert stats["structures"] == 12
        # One build of Z4 and Z2^2 and their 2 + 6 automorphisms serves the
        # listing and the class count, which takes no canonical form.
        assert stats["automorphisms"] == 2 + 6
        assert stats["canonical_form_calls"] == 0
        assert stats["reduce_s"] == 0.0
        assert stats["isomorphism_calls"] == 0
        assert all(stats[k] >= 0 for k in ("search_s", "automorphisms_s", "twist_s", "reduce_s"))

    def test_guard_refused(self, capsys):
        code, out = run(capsys, "classify", "--order", "7")
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: guard-refused"

    def test_order_past_the_solvable_bound_is_a_domain_error(self, capsys):
        # --force lifts the guard, but groups are built only below order 60.
        code, out = run(capsys, "classify", "--order", "60", "--force")
        assert code == 2
        assert out.endswith("below order 60\nerror: domain-error\n")

    def test_emit_writes_loadable_documents(self, tmp_path, capsys):
        out_dir = tmp_path / "reps"
        code, out = run(
            capsys, "classify", "--order", "3", "--include-groups", "--emit", str(out_dir)
        )
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert [f.name for f in files] == [
            "homgroup_order3_001.json",
            "homgroup_order3_002.json",
        ]
        for f in files:
            document_to_hom_group(parse_document(str(f)))

    def test_emit_onto_a_file_is_a_domain_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code, out = run(capsys, "classify", "--order", "3", "--emit", str(target))
        assert code == 2
        assert out == CLASSIFY3_TEXT + f"cannot write to {target}: File exists\nerror: domain-error\n"


class TestSubgroupsCommand:
    def test_z6a_listing(self, tmp_path, capsys):
        code, out = run(capsys, "subgroups", write_fixture(tmp_path, "z6a"))
        assert code == 0
        assert out == "{0}\n{0,3}\n{0,2,4}\n{0,1,2,3,4,5}\n"

    def test_invalid_document_tagged(self, tmp_path, capsys):
        doc = hom_group_to_document(fixture("z6a"))
        doc["alpha"] = [0, 1, 2, 3, 4, 5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "subgroups", str(path))
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: invalid-structure"

    def test_unforeseen_library_value_error_is_a_domain_error(self, tmp_path, capsys, monkeypatch):
        import homgroups.subgroups as subgroups

        def fail(G):
            raise ValueError("no such thing")

        monkeypatch.setattr(subgroups, "enumerate_hom_subgroups", fail)
        code, out = run(capsys, "subgroups", write_fixture(tmp_path, "z6a"))
        assert (code, out) == (2, "no such thing\nerror: domain-error\n")


class TestCosetsCommand:
    def test_single_coset(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "z6a")
        code, out = run(
            capsys, "cosets", path, "--subgroup", "0,3", "--element", "1", "--side", "left"
        )
        assert code == 0
        assert out == "{2,5}\n"

    def test_partition(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "z6a")
        code, out = run(capsys, "cosets", path, "--subgroup", "0,3")
        assert code == 0
        assert out == "{0,3}\n{2,5}\n{1,4}\n"

    def test_right_side(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "d3a")
        code, out = run(
            capsys, "cosets", path, "--subgroup", "0,1,2", "--element", "3", "--side", "right"
        )
        assert code == 0
        assert out == "{3,4,5}\n"

    def test_non_subgroup_names_failed_closure(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "z6a")
        code, out = run(capsys, "cosets", path, "--subgroup", "0,1")
        assert code == 2
        assert "not closed under product" in out
        assert out.rstrip().splitlines()[-1] == "error: domain-error"

    def test_bad_subset_syntax(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "z6a")
        code, out = run(capsys, "cosets", path, "--subgroup", "0;1")
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: domain-error"

    @pytest.mark.parametrize("element", [[], ["--element", "1"]])
    def test_subgroup_checked_once(self, tmp_path, capsys, monkeypatch, element):
        import homgroups.subgroups as subgroups

        calls = []
        check = subgroups.subgroup_defect
        monkeypatch.setattr(subgroups, "subgroup_defect", lambda G, S: calls.append(S) or check(G, S))
        code, _ = run(capsys, "cosets", write_fixture(tmp_path, "z6a"), "--subgroup", "0,3", *element)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "subset, element, message",
        [
            ("1,1", [], "subset {1,1} is not a Hom-subgroup: unit 0 not in subset"),
            (
                "0,1",
                ["--element", "9"],
                "subset {0,1} is not a Hom-subgroup: not closed under product: 0*1 = 5 escapes",
            ),
            ("0,9", ["--element", "99"], "members outside carrier: [9]"),
            ("0,3", ["--element", "9"], "index 9 outside 0..5"),
        ],
    )
    def test_rejection_lines(self, tmp_path, capsys, subset, element, message):
        path = write_fixture(tmp_path, "z6a")
        code, out = run(capsys, "cosets", path, "--subgroup", subset, *element)
        assert code == 2
        assert out == f"{message}\nerror: domain-error\n"


class TestLagrangeCommand:
    def test_z5a_golden(self, tmp_path, capsys):
        code, out = run(capsys, "lagrange", write_fixture(tmp_path, "z5a"))
        assert code == 0
        assert out == (
            "|G| = 5\n"
            "H={0} |H|=1 index=5\n"
            "H={0,1,2,3,4} |H|=5 index=1\n"
            "divisors: 1, 5\n"
        )

    def test_z6a_divisor_line(self, tmp_path, capsys):
        code, out = run(capsys, "lagrange", write_fixture(tmp_path, "z6a"))
        assert code == 0
        assert out.rstrip().splitlines()[-1] == "divisors: 1, 2, 3, 6"


class TestCauchyCommand:
    def test_z6a_golden(self, tmp_path, capsys):
        code, out = run(capsys, "cauchy", write_fixture(tmp_path, "z6a"))
        assert code == 0
        assert out == "|G| = 6\np=2: {0,3}\np=3: {0,2,4}\n"

    def test_missing_witness_prints_none(self, tmp_path, capsys):
        from homgroups import HomGroup

        klein_twist = HomGroup(
            ((0, 2, 3, 1), (2, 0, 1, 3), (3, 1, 0, 2), (1, 3, 2, 0)), (0, 2, 3, 1), 0
        )
        path = tmp_path / "kt.json"
        path.write_text(dumps_document(hom_group_to_document(klein_twist)))
        code, out = run(capsys, "cauchy", str(path))
        assert code == 0
        assert out == "|G| = 4\np=2: none\n"


class TestTwistCommand:
    def test_negation_twist_matches_fixture_bytes(self, tmp_path, capsys):
        code, out = run(capsys, "twist", "--group", "zn:6", "--auto", "0,5,4,3,2,1")
        assert code == 0
        assert out == dumps_document(hom_group_to_document(fixture("z6a"))) + "\n"

    def test_conjugation_twist_matches_the_d3a_table(self, capsys, d3a):
        code, out = run(capsys, "twist", "--group", "dn:3", "--conjugate", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"] == [list(r) for r in d3a.table.entries]
        assert doc["alpha"] == list(d3a.alpha.images)

    def test_identity_twist_gives_the_group(self, capsys):
        code, out = run(capsys, "twist", "--group", "zn:6", "--auto", "0,1,2,3,4,5")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == [0, 1, 2, 3, 4, 5]
        assert doc["table"][2][3] == 5

    def test_conjugating_element_out_of_range(self, capsys):
        code, out = run(capsys, "twist", "--group", "dn:3", "--conjugate", "9")
        assert code == 2
        assert out == "index 9 outside 0..5\nerror: domain-error\n"

    def test_document_operand_verified_once(self, tmp_path, capsys, monkeypatch):
        import homgroups.core as core

        path = tmp_path / "z6.json"
        path.write_text(dumps_document(hom_group_to_document(cyclic_group(6))))
        calls = []
        check = core.verify
        monkeypatch.setattr(core, "verify", lambda *args: calls.append(args) or check(*args))
        code, out = run(capsys, "twist", "--group", str(path), "--list-autos")
        assert (code, out) == (0, "0,1,2,3,4,5\n0,5,4,3,2,1\n")
        assert len(calls) == 1

    def test_list_autos(self, capsys):
        code, out = run(capsys, "twist", "--group", "zn:6", "--list-autos")
        assert code == 0
        assert out == "0,1,2,3,4,5\n0,5,4,3,2,1\n"

    def test_list_autos_guard_refuses_at_once(self, tmp_path, capsys):
        # (Z2)^6 has six generators with 63 candidate images each, so the
        # search would try 63^6 tuples to list |GL(6,2)| maps.
        G = cyclic_group(2)
        for _ in range(5):
            G = direct_product(G, cyclic_group(2))
        path = tmp_path / "z2_6.json"
        path.write_text(dumps_document(hom_group_to_document(G)))
        code, out = run(capsys, "twist", "--group", str(path), "--list-autos")
        assert code == 2
        assert out == (
            f"automorphism search may try {63**6} generator images, over the guard of "
            "1000000; pass --force to run it\nerror: guard-refused\n"
        )

    def test_list_autos_force_overrides_the_guard(self, capsys, monkeypatch):
        import homgroups.cli as cli

        # dn:4: r has 2 candidates (r, r^3), s has 5 (r^2 and the reflections).
        monkeypatch.setattr(cli, "LIST_AUTOS_GUARD", 9)
        code, out = run(capsys, "twist", "--group", "dn:4", "--list-autos")
        assert (code, out.splitlines()[-1]) == (2, "error: guard-refused")
        code, out = run(capsys, "twist", "--group", "dn:4", "--list-autos", "--force")
        assert code == 0
        assert out.splitlines() == [
            ",".join(map(str, f)) for f in dihedral_automorphisms_by_formula(4)
        ]

    def test_list_autos_under_the_guard(self, capsys):
        # dn:32 tries 16 * 33 generator images.
        code, out = run(capsys, "twist", "--group", "dn:32", "--list-autos")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 512
        assert lines == [",".join(map(str, f)) for f in dihedral_automorphisms_by_formula(32)]

    @pytest.mark.parametrize("kind", ["zn", "dn"])
    def test_operand_guard_refuses_before_building(self, capsys, monkeypatch, kind):
        import homgroups.cli as cli

        def unbuilt(k):
            raise AssertionError(f"built a group from k = {k}")

        monkeypatch.setattr(cli._constructions, "cyclic_group", unbuilt)
        monkeypatch.setattr(cli._constructions, "dihedral_group", unbuilt)
        # zn:10**20, and the least dn:k whose 2k elements are over the guard
        k = 10**20 if kind == "zn" else cli._OPERAND_GUARD // 2 + 1
        code, out = run(capsys, "twist", "--group", f"{kind}:{k}", "--conjugate", "0")
        assert code == 2
        assert out.endswith("; pass --force to build it\nerror: guard-refused\n")

    def test_operand_guard_counts_the_carrier_and_force_overrides_it(self, capsys, monkeypatch):
        import homgroups.cli as cli

        monkeypatch.setattr(cli, "_OPERAND_GUARD", 6)
        for spec, code in (("zn:6", 0), ("zn:7", 2), ("dn:3", 0), ("dn:4", 2)):
            assert run(capsys, "twist", "--group", spec, "--conjugate", "0")[0] == code, spec
        code, out = run(capsys, "twist", "--group", "dn:4", "--conjugate", "0", "--force")
        assert code == 0
        assert json.loads(out)["order"] == 8

    def test_non_automorphism_rejected(self, capsys):
        code, out = run(capsys, "twist", "--group", "zn:6", "--auto", "0,2,1,3,4,5")
        assert code == 2
        assert "witness pair" in out
        assert out.rstrip().splitlines()[-1] == "error: not-automorphism"

    def test_document_operand_must_be_plain_group(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "z6a")
        code, out = run(capsys, "twist", "--group", path, "--auto", "0,5,4,3,2,1")
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: domain-error"

    def test_document_operand_group_roundtrip(self, tmp_path, capsys):
        code, out = run(capsys, "twist", "--group", "zn:6", "--auto", "0,1,2,3,4,5")
        path = tmp_path / "z6_group.json"
        path.write_text(out)
        code, out = run(capsys, "twist", "--group", str(path), "--auto", "0,5,4,3,2,1")
        assert code == 0
        assert json.loads(out)["table"] == [list(r) for r in fixture("z6a").table.entries]


class TestHopfCommand:
    def test_dims_z6a(self, tmp_path, capsys):
        code, out = run(capsys, "hopf", write_fixture(tmp_path, "z6a"), "--dims")
        assert code == 0
        assert out == "dims: 1, 2, 3, 6\n|G| = 6\nall divide |G|: true\n"

    def test_dims_z5a(self, tmp_path, capsys):
        code, out = run(capsys, "hopf", write_fixture(tmp_path, "z5a"), "--dims")
        assert code == 0
        assert out.startswith("dims: 1, 5\n")

    def test_check_passes(self, tmp_path, capsys):
        code, out = run(capsys, "hopf", write_fixture(tmp_path, "z6a"), "--check")
        assert code == 0
        assert out == "valid: true\n"


class TestCayleyCommand:
    def test_text_matches_stock_layout(self, tmp_path, capsys):
        code, out = run(capsys, "cayley", write_fixture(tmp_path, "z3a"))
        assert code == 0
        assert out == Z3A_TEXT + "\n"

    def test_csv_rows(self, tmp_path, capsys):
        code, out = run(capsys, "cayley", write_fixture(tmp_path, "z6a"), "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0,5,4,3,2,1"
        assert lines[5] == "1,0,5,4,3,2"
        assert out.endswith("\n")

    def test_json_roundtrip(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "d3a")
        code, out = run(capsys, "cayley", path, "--format", "json")
        assert code == 0
        assert document_to_hom_group(json.loads(out)) == fixture("d3a")

    def test_unknown_format_is_usage_error(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "z3a")
        code, out = run(capsys, "cayley", path, "--format", "yaml")
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: usage-error"


# Labels with the characters JSON escapes: quote, backslash, control
# characters, DEL and text outside ASCII, one character past the BMP.
ESCAPED_CHARS = '"\\/\x00\x01\x1f\x7f\n\t aZ9\u00e9\u2603\U0001f600'
LABELS = st.text(st.sampled_from(ESCAPED_CHARS), max_size=4) | st.text(max_size=3)


class TestDocumentLayer:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_writer_matches_json_dumps(self, data):
        n = data.draw(st.integers(1, 12))
        index = st.integers(0, n - 1)
        row = st.lists(index, min_size=n, max_size=n)
        doc = {
            "order": n,
            "unit": data.draw(index),
            "alpha": data.draw(st.permutations(range(n))),
            "table": data.draw(st.lists(row, min_size=n, max_size=n)),
        }
        if data.draw(st.booleans()):
            doc["labels"] = data.draw(st.lists(LABELS, min_size=n, max_size=n))
        assert dumps_document(doc) == json.dumps(doc, indent=2)

    def test_roundtrip_fixtures(self, tmp_path, stock_fixture):
        path = tmp_path / "g.json"
        path.write_text(dumps_document(hom_group_to_document(stock_fixture)))
        assert document_to_hom_group(parse_document(str(path))) == stock_fixture

    def test_roundtrip_enumerated(self, tmp_path):
        idx = 0
        for n in range(1, 5):
            for G in enumerate_hom_groups(SearchConfig(order=n, include_groups=True)):
                path = tmp_path / f"g{idx}.json"
                path.write_text(dumps_document(hom_group_to_document(G)))
                assert document_to_hom_group(parse_document(str(path))) == G
                idx += 1

    def test_nonzero_unit_documents_load(self, z3a):
        moved = relabel(z3a, (1, 0, 2))
        doc = hom_group_to_document(moved)
        assert doc["unit"] == 1
        assert document_to_hom_group(doc) == moved

    def test_rendering_is_relabeling_invariant(self, z3a):
        # unit-first display plus label transport makes the rendered grid
        # independent of the index order
        moved = relabel(z3a, (1, 0, 2))
        assert render_text(moved) == render_text(z3a)


class TestParserReuse:
    """main builds its parser once per process; no call may change what a
    later one prints."""

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "z6a")
        sequence = [
            ["twist", "--group", "zn:6"],
            ["classify", "--order", "4", "--stats"],
            ["classify", "--order", "4"],
            ["lagrange", path],
            ["cayley", path, "--format", "csv"],
        ]

        def outcome(argv):
            code = main(argv)
            captured = capsys.readouterr()
            err = captured.err
            if "--stats" in argv:  # the phase timings differ from run to run
                stats = json.loads(err)
                err = {k: v for k, v in stats.items() if not k.endswith("_s")}
            return code, captured.out, err

        parser = build_parser()
        reused = [outcome(argv) for argv in sequence]
        assert build_parser() is parser
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        assert reused[0][0] == 2 and reused[0][1] == "error: usage-error\n"
        # classify prints the same with and without --stats, and the stats
        # line of one call does not carry over to the next.
        assert reused[1][1] == reused[2][1] and reused[2][2] == ""


class TestErrorSurface:
    def test_unknown_command_is_usage_error(self, capsys):
        code, out = run(capsys, "frobnicate")
        assert code == 2
        assert out.rstrip().splitlines()[-1] == "error: usage-error"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# A valid order-3 document, its mutable paths, and the document commands
# run on each mutation of it (PATH stands for the document's path).
_Z3_DOCUMENT = {
    "order": 3,
    "unit": 0,
    "alpha": [0, 1, 2],
    "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "labels": ["e", "a", "b"],
}
_PATHS = (
    *[(key,) for key in ("order", "unit", "alpha", "table", "labels", "name")],
    *[(key, i) for key in ("alpha", "table", "labels") for i in range(3)],
    *[("table", i, j) for i in range(3) for j in range(3)],
)
_DELETE = object()
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.just(10**30),
    st.just(float("nan")),
    st.floats(),
    st.text(max_size=3),
    st.recursive(
        st.none() | st.integers(-1, 3),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner),
        max_leaves=8,
    ),
    st.just(_DELETE),
)
_DOCUMENT_COMMANDS = (
    ("verify", "PATH"),
    ("subgroups", "PATH"),
    ("lagrange", "PATH"),
    ("cauchy", "PATH"),
    ("hopf", "PATH", "--check"),
    ("hopf", "PATH", "--dims"),
    ("cayley", "PATH"),
    ("cayley", "PATH", "--format", "json"),
    ("cosets", "PATH", "--subgroup", "0"),
    ("twist", "--group", "PATH", "--conjugate", "1"),
    ("twist", "--group", "PATH", "--list-autos"),
)
_TAGS = {
    "parse-error", "invalid-structure", "domain-error", "usage-error", "guard-refused",
    "not-automorphism",
}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PATHS), _VALUES), min_size=1, max_size=2))
def test_document_mutations_end_with_a_tag_and_never_a_traceback(tmp_path_factory, mutations):
    doc = json.loads(json.dumps(_Z3_DOCUMENT))
    for (*parents, last), value in mutations:
        try:
            node = reduce(getitem, parents, doc)
            if value is _DELETE:
                del node[last]
            else:
                node[last] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the path
    path = tmp_path_factory.mktemp("mutated") / "doc.json"
    path.write_text(json.dumps(doc))
    for command in _DOCUMENT_COMMANDS:
        argv = [str(path) if arg == "PATH" else arg for arg in command]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != 0:
            tag = re.search(r"error: ([a-z-]+)\n\Z", out.getvalue())
            assert code in (1, 2) and tag is not None and tag.group(1) in _TAGS, (argv, doc)


# Every subcommand with its flags and a fixed pool of values for each.
# Orders stop at 6, and zn:/dn: sizes over twist's operand guard are drawn
# only without --force, so that no run builds a large carrier.
_SMALL_GROUPS = (*(f"{kind}:{k}" for kind in ("zn", "dn") for k in range(17)), "PATH")
_LARGE_GROUPS = ("zn:1025", "dn:513", "zn:100000")
_ELEMENTS = ("-1", "0", "1", "2", "3", "x")
_FLAG_VALUES = {
    "--order": tuple(map(str, range(7))),
    "--emit": ("EMIT", "PATH"),
    "--subgroup": ("0", "0,1,2", "0,1", "0,a", ""),
    "--element": _ELEMENTS,
    "--side": ("left", "right", "up"),
    "--group": _SMALL_GROUPS,
    "--auto": ("0,1,2", "0,2,1", "1,0,2", "0,1", "0,x,2"),
    "--conjugate": _ELEMENTS,
    "--format": ("text", "csv", "json", "xml"),
}
_FLAGS = {
    "verify": (),
    "classify": ("--order", "--include-groups", "--up-to-iso", "--force", "--emit", "--stats"),
    "subgroups": (),
    "cosets": ("--subgroup", "--element", "--side"),
    "lagrange": (),
    "cauchy": (),
    "twist": ("--group", "--auto", "--conjugate", "--list-autos", "--force"),
    "hopf": ("--check", "--dims"),
    "cayley": ("--format",),
}
_REQUIRED = {"classify": ("--order",), "cosets": ("--subgroup",), "twist": ("--group",)}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    # Required arguments and no stray flag in most runs, so that most get
    # past the parser.
    if command not in ("classify", "twist") and draw(st.integers(0, 7)):
        argv.append(draw(st.sampled_from(("PATH", "missing.json"))))
    flags = [f for f in _REQUIRED.get(command, ()) if draw(st.integers(0, 7))]
    if _FLAGS[command]:
        more = draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=3, unique=True))
        flags += [f for f in more if f not in flags]
    if not draw(st.integers(0, 7)):
        flags.append(draw(st.sampled_from(("--bogus", "--order", "--check"))))
    for flag in flags:
        argv.append(flag)
        values = _FLAG_VALUES.get(flag, ())
        if flag == "--group" and "--force" not in flags:
            values += _LARGE_GROUPS
        if values:
            argv.append(draw(st.sampled_from(values)))
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
def test_argv_ends_with_a_tag_and_never_a_traceback(tmp_path_factory, argv):
    workdir = tmp_path_factory.mktemp("argv")
    (workdir / "doc.json").write_text(json.dumps(_Z3_DOCUMENT))
    places = {"PATH": "doc.json", "EMIT": "emitted", "missing.json": "missing.json"}
    argv = [str(workdir / places[arg]) if arg in places else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        tag = re.search(r"error: ([a-z-]+)\n\Z", out.getvalue())
        assert code in (1, 2) and tag is not None and tag.group(1) in _TAGS, argv


def test_library_imports_only_the_standard_library():
    # perfbench's setup_s times this import, so every module it loads
    # must be the package's own or the standard library's.
    src = Path(homgroups.__file__).resolve().parents[1]
    probe = (
        "import sys; before = set(sys.modules); import homgroups, homgroups.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    roots = {name.partition(".")[0] for name in loaded}
    assert "homgroups" in roots
    assert not roots - {"homgroups"} - sys.stdlib_module_names


def test_dropped_imports_of_the_library_are_freed():
    # perfbench imports the library afresh on every set-up repeat, so an
    # import dropped from sys.modules must not stay alive, as one did while
    # typing's cache held a Union of the library's classes.
    src = Path(homgroups.__file__).resolve().parents[1]
    probe = (
        "import gc, sys, types\n"
        "def load():\n"
        "    for name in [m for m in sys.modules if m.partition('.')[0] == 'homgroups']:\n"
        "        del sys.modules[name]\n"
        "    import homgroups, homgroups.cli\n"
        "for _ in range(4):\n"
        "    load()\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, types.FunctionType) and o.__name__ == 'verify'\n"
        "          and o.__module__ == 'homgroups.core' for o in gc.get_objects()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    live = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert live.split() == ["1"]
