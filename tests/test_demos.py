"""Each demo runs to completion in-process and prints its walkthrough."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_hopf_demo_names_the_corrupted_antipode(capsys):
    runpy.run_path(str(DEMO_DIR / "05_hopf_layer.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "after corrupting the antipode at basis index 1:",
        "  broken: antipode at (1,)",
    ]
