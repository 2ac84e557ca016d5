"""The ``repro lint`` exit-code contract and the project-wide tiers.

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
MIXED = (
    "def total(a_seconds: float, b_bytes: float) -> float:\n"
    "    return a_seconds + b_bytes\n"
)
#: The unit-dataflow tier and the interleave tier, as ``--ignore`` lists.
UNIT_IDS = "REP011,REP012,REP013,REP014,REP015"
INTERLEAVE_IDS = "REP016,REP017,REP018,REP019,REP021,REP024"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        root = tree({"repro/core/mod.py": CLEAN})
        assert main(["lint", root]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violations_exit_one(self, tree, capsys):
        root = tree({"repro/core/mod.py": MIXED})
        assert main(["lint", root]) == 1
        assert "REP011" in capsys.readouterr().out

    def test_unparseable_input_exits_two(self, tree, capsys):
        root = tree({"repro/core/mod.py": "def broken(:\n"})
        assert main(["lint", root]) == 2
        assert "REP000" in capsys.readouterr().out

    def test_parse_error_beats_violations(self, tree, capsys):
        # A tree with both real findings and a syntax error is an
        # incomplete report: the config-error code must win.
        root = tree(
            {
                "repro/core/bad.py": MIXED,
                "repro/core/broken.py": "def broken(:\n",
            }
        )
        assert main(["lint", root]) == 2

    def test_unknown_rule_id_exits_two(self, tree, capsys):
        root = tree({"repro/core/mod.py": CLEAN})
        assert main(["lint", "--select", "REP999", root]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        # A typo must not pass as a clean lint of nothing.
        missing = str(tmp_path / "does" / "not" / "exist")
        assert main(["lint", missing]) == 2
        assert "no such file or directory" in capsys.readouterr().err


class TestDataflowFlags:
    def test_ignoring_the_unit_ids_skips_the_tier(self, tree, capsys):
        root = tree({"repro/core/mod.py": MIXED})
        assert main(["lint", "--ignore", UNIT_IDS, root]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_report_carries_dataflow_findings(self, tree, capsys):
        root = tree({"repro/core/mod.py": MIXED})
        assert main(["lint", "--format", "json", root]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["REP011"] == 1
        (finding,) = payload["findings"]
        assert finding["rule_id"] == "REP011"
        assert finding["line"] == 2

    def test_list_rules_documents_the_unit_tier(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP011", "REP012", "REP013", "REP014", "REP015"):
            assert rule_id in out

    def test_list_rules_documents_the_interleave_tier(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "REP016",
            "REP017",
            "REP018",
            "REP019",
            "REP021",
            "REP022",
            "REP023",
            "REP024",
        ):
            assert rule_id in out


#: Trips REP016 (read-modify-write across a yield) and nothing else.
INTERLEAVE_BAD = (
    "class Counter:\n"
    "    def run(self):\n"
    "        total = self.bytes_sent\n"
    "        yield self.env.timeout(1.0)\n"
    "        self.bytes_sent = total + 1\n"
)


class TestInterleaveFlags:
    def test_interleave_findings_exit_one(self, tree, capsys):
        root = tree({"repro/sim/mod.py": INTERLEAVE_BAD})
        assert main(["lint", root]) == 1
        assert "REP016" in capsys.readouterr().out

    def test_ignoring_the_interleave_ids_skips_the_tier(self, tree, capsys):
        root = tree({"repro/sim/mod.py": INTERLEAVE_BAD})
        assert main(["lint", "--ignore", INTERLEAVE_IDS, root]) == 0
        assert "no findings" in capsys.readouterr().out
