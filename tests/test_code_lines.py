"""tools/code_lines.py, the line counter behind every code-size figure."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Function docstring,
        also over two lines.
        """
        "a string statement that is not a docstring"
        text = """first
second"""
        return self.size, text
'''

# The lines above that hold code, by their text.
COUNTED = [
    "import os  # a comment after code",
    "class Box:",
    "    size = (",
    "        1,",
    "        2,",
    "    )",
    "    def area(self):",
    '        "a string statement that is not a docstring"',
    '        text = """first',
    'second"""',
    "        return self.size, text",
]


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert all(line in SAMPLE.splitlines() for line in COUNTED)
    assert _tool().code_lines(path) == len(COUNTED)


def test_docstring_lines_cover_module_class_and_function():
    # lines 1-2 hold the module docstring, 10 the class's, 18-20 the function's
    assert _tool().docstring_lines(SAMPLE) == {1, 2, 10, 18, 19, 20}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert _tool().main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"{len(COUNTED):6d}  {tmp_path / 'a.py'}",
        f"{1:6d}  {tmp_path / 'b.py'}",
        f"{len(COUNTED) + 1:6d}  total",
    ]
