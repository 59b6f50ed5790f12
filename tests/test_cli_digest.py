"""tools/cli_digest.py, the corpus behind byte-identity checks of the CLI."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"

SUBCOMMANDS = {
    "verify", "classify", "subgroups", "cosets", "lagrange", "cauchy", "twist", "hopf", "cayley",
}
TAGS = {
    "parse-error", "invalid-structure", "domain-error", "usage-error", "guard-refused",
    "not-automorphism",
}


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_agree_and_failures_end_with_their_tag(tmp_path):
    tool = _tool()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = tool.outputs(tmp_path / "a")
    # another directory, so no path may leak into the digests
    assert tool.digest_lines(first) == tool.digest_lines(tool.outputs(tmp_path / "b"))
    assert {argv[0] for argv, _, _ in first if argv} >= SUBCOMMANDS
    tags = set()
    for argv, stdout, code in first:
        if code != 0:
            tag = re.search(r"error: ([a-z-]+)\n\Z", stdout)
            assert tag is not None, (argv, stdout)
            tags.add(tag.group(1))
        elif argv[0] == "verify":
            assert stdout.endswith("valid: true\n"), argv
    assert tags == TAGS
    # every twisted group passes verify
    valid = {name for name, _, _ in tool.valid_documents()}
    assert {argv[1] for argv, _, code in first if argv[:1] == ["verify"] and code == 0} >= valid


def test_last_line_is_the_total(tmp_path):
    lines = _tool().digest_lines([(["verify", "x.json"], "valid: true\n", 0)])
    assert len(lines) == 2
    assert lines[0].endswith("  homgroups verify x.json")
    assert lines[1].endswith("  total of 1 commands")
    assert re.fullmatch(r"[0-9a-f]{64}", lines[1].split()[0])
