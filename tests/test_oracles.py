"""Rules that keep the oracles independent of the code they check."""

import ast
from pathlib import Path

import pytest
from oracles import all_latin_squares

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_the_axiom_checker():
    # The oracles may filter through verify, but never reuse the library's
    # search or pruning code, or a shared bug would agree with itself.
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "homgroups"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "homgroups":
            imported += [f"{node.module}.{a.name}" for a in node.names]
    assert set(imported) <= {"homgroups.core.verify"}


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 576), (5, 161_280)])
def test_latin_square_counts(n, count):
    # OEIS A002860: the number of n x n Latin squares.
    squares = all_latin_squares(n)
    assert len(squares) == len(set(squares)) == count
    assert all(sorted(col) == list(range(n)) for sq in squares for col in zip(*sq))
