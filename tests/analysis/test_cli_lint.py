"""The ``repro lint`` exit-code contract, its flags and its reports.

The contract CI relies on: 0 = clean, 1 = rule violations, 2 = the lint
itself could not do its job (unparseable input, unknown rule ids, a
missing path).  A 2 must never be mistaken for "the tree has findings"
— it means the report is incomplete.
"""

import json
import textwrap

import pytest

from repro.cli import main


@pytest.fixture
def tree(tmp_path):
    """tree({"repro/core/mod.py": src, ...}) -> lintable directory path."""

    def _write(files):
        for rel_path, source in files.items():
            target = tmp_path / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        return str(tmp_path)

    return _write


CLEAN = (
    "def total(a_seconds: float, b_seconds: float) -> float:\n"
    "    return a_seconds + b_seconds\n"
)
#: A bare seconds-per-hour literal: one REP013 finding on line 2.
BARE_HOUR = (
    "def horizon(hours: float) -> float:\n"
    "    return hours * 3600.0\n"
)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        root = tree({"repro/core/mod.py": CLEAN})
        assert main(["lint", root]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violations_exit_one(self, tree, capsys):
        root = tree({"repro/core/mod.py": BARE_HOUR})
        assert main(["lint", root]) == 1
        assert "REP013" in capsys.readouterr().out

    def test_unparseable_input_exits_two(self, tree, capsys):
        root = tree({"repro/core/mod.py": "def broken(:\n"})
        assert main(["lint", root]) == 2
        assert "REP000" in capsys.readouterr().out

    def test_parse_error_beats_violations(self, tree, capsys):
        # A tree with both real findings and a syntax error is an
        # incomplete report: the config-error code must win.
        root = tree(
            {
                "repro/core/bad.py": BARE_HOUR,
                "repro/core/broken.py": "def broken(:\n",
            }
        )
        assert main(["lint", root]) == 2

    def test_unknown_rule_id_exits_two(self, tree, capsys):
        root = tree({"repro/core/mod.py": CLEAN})
        # REP011 is retired: a retired id is never reused, so it is
        # as unknown as one never registered.
        for rule_id in ("REP999", "REP011"):
            assert main(["lint", "--select", rule_id, root]) == 2
            assert "unknown rule ids" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        # A typo must not pass as a clean lint of nothing.
        missing = str(tmp_path / "does" / "not" / "exist")
        assert main(["lint", missing]) == 2
        assert "no such file or directory" in capsys.readouterr().err


class TestFlagsAndReports:
    def test_ignoring_a_rule_drops_its_findings(self, tree, capsys):
        root = tree({"repro/core/mod.py": BARE_HOUR})
        assert main(["lint", "--ignore", "REP013", root]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_report_carries_the_findings(self, tree, capsys):
        root = tree({"repro/core/mod.py": BARE_HOUR})
        assert main(["lint", "--format", "json", root]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["REP013"] == 1
        (finding,) = payload["findings"]
        assert finding["rule_id"] == "REP013"
        assert finding["line"] == 2

    def test_list_rules_documents_rep013_and_no_retired_id(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP013" in out
        for rule_id in ("REP011", "REP012", "REP014", "REP015"):
            assert rule_id not in out

    def test_list_rules_documents_suppression_hygiene(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP022", "REP023"):
            assert rule_id in out
