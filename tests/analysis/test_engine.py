"""Engine behaviour: selection, suppression, reporting, error handling."""

import json
from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_paths, render_json, render_text
from repro.analysis.engine import PARSE_ERROR_ID

#: A snippet that violates REP002 (unseeded randomness) and REP001
#: (wall clock) at known lines when written under ``repro/``.
TWO_VIOLATIONS = """\
import random
import time

STAMP = time.time()
"""


def ids(findings):
    return sorted({f.rule_id for f in findings})


class TestRegistry:
    def test_all_rules_cover_the_documented_catalogue(self):
        expected = (
            {f"REP00{n}" for n in range(1, 10) if n not in (5, 7)}
            | {f"REP01{n}" for n in range(10)}
            | {"REP021", "REP022", "REP023", "REP024"}
        )
        assert {rule.rule_id for rule in all_rules()} == expected

    def test_every_rule_has_a_title(self):
        assert all(rule.title for rule in all_rules())

    def test_every_rule_has_a_row_in_the_design_yield_table(self):
        design = Path(__file__).resolve().parents[2] / "DESIGN.md"
        section = design.read_text(encoding="utf-8").split(
            "### Yield by rule", 1
        )[1].split("\n### ", 1)[0]
        rows = {
            line.split("|")[1].strip()
            for line in section.splitlines()
            if line.startswith("| REP")
        }
        assert {rule.rule_id for rule in all_rules()} <= rows


class TestSelection:
    def test_unfiltered_reports_both(self, lint):
        findings = lint("repro/sim/mod.py", TWO_VIOLATIONS)
        assert ids(findings) == ["REP001", "REP002"]

    def test_select_narrows_to_named_rules(self, lint):
        findings = lint(
            "repro/sim/mod.py", TWO_VIOLATIONS, select=["REP002"]
        )
        assert ids(findings) == ["REP002"]

    def test_ignore_drops_named_rules(self, lint):
        findings = lint(
            "repro/sim/mod.py", TWO_VIOLATIONS, ignore=["REP001"]
        )
        assert ids(findings) == ["REP002"]

    def test_unknown_select_id_is_an_error(self, lint):
        with pytest.raises(ValueError, match="REP999"):
            lint("repro/sim/mod.py", TWO_VIOLATIONS, select=["REP999"])

    def test_unknown_ignore_id_is_an_error(self, lint):
        with pytest.raises(ValueError, match="NOPE"):
            lint("repro/sim/mod.py", TWO_VIOLATIONS, ignore=["NOPE1"])


class TestPathHandling:
    def test_directory_walk_finds_nested_files(self, tmp_path):
        (tmp_path / "repro" / "sim").mkdir(parents=True)
        (tmp_path / "repro" / "sim" / "a.py").write_text("import random\n")
        (tmp_path / "repro" / "sim" / "__pycache__").mkdir()
        (tmp_path / "repro" / "sim" / "__pycache__" / "a.py").write_text(
            "import random\n"
        )
        findings = lint_paths([tmp_path], root=tmp_path)
        assert ids(findings) == ["REP002"]
        assert len(findings) == 1  # __pycache__ copy skipped

    def test_hidden_ancestor_of_the_linted_path_is_not_skipped(self, tmp_path):
        # Only dot-directories *below* the linted path are skipped; a
        # checkout that itself lives under one must still be linted.
        pkg = tmp_path / ".hidden" / "pkg"
        (pkg / "repro" / "sim").mkdir(parents=True)
        (pkg / "repro" / "sim" / "a.py").write_text(
            "import time\nx = time.time()\n"
        )
        (pkg / ".venv").mkdir()
        (pkg / ".venv" / "b.py").write_text("import random\n")
        findings = lint_paths([pkg.resolve()], root=pkg)
        assert [(f.path, f.rule_id) for f in findings] == [
            ("repro/sim/a.py", "REP001")
        ]

    def test_syntax_error_becomes_rep000_finding(self, lint):
        findings = lint("repro/sim/broken.py", "def f(:\n")
        assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]

    def test_findings_are_ordered_by_path_then_line(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "b.py").write_text("import random\n")
        (tmp_path / "repro" / "a.py").write_text(
            "import time\nx = time.time()\n"
        )
        findings = lint_paths([tmp_path], root=tmp_path)
        assert [f.path for f in findings] == ["repro/a.py", "repro/b.py"]


class TestNoqa:
    def test_bare_noqa_suppresses_everything_on_the_line(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "import time\nx = time.time()  # repro: noqa -- why\n",
        )
        assert findings == []

    def test_bare_noqa_without_reason_is_flagged(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "import time\nx = time.time()  # repro: noqa\n",
        )
        assert ids(findings) == ["REP023"]

    def test_id_specific_noqa_suppresses_only_that_rule(self, lint):
        source = (
            "import random  # repro: noqa REP002 -- fixture\n"
            "import time\n"
            "\n"
            "STAMP = time.time()  # repro: noqa REP001 -- fixture\n"
        )
        assert lint("repro/sim/mod.py", source) == []

    def test_wrong_id_does_not_suppress_and_reads_stale(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "import time\nx = time.time()  # repro: noqa REP002 -- why\n",
        )
        # The REP001 violation still surfaces, and the REP002 waiver
        # suppressed nothing, so it is reported stale.
        assert ids(findings) == ["REP001", "REP022"]

    def test_noqa_with_reason_text_still_suppresses(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "import time\n"
            "x = time.time()  # repro: noqa REP001 -- startup stamp\n",
        )
        assert findings == []

    def test_plain_noqa_comment_is_not_ours(self, lint):
        # Only the "repro: noqa" comment spelling counts; a bare
        # "noqa" (ruff/flake8's) must not silence the determinism
        # rules.
        findings = lint(
            "repro/sim/mod.py",
            "import time\nx = time.time()  # noqa\n",
        )
        assert ids(findings) == ["REP001"]


class TestReporters:
    def test_text_report_contains_location_and_summary(self, lint):
        findings = lint("repro/sim/mod.py", TWO_VIOLATIONS)
        text = render_text(findings)
        assert "repro/sim/mod.py:4" in text
        assert "REP002" in text
        assert "2 finding(s)" in text

    def test_text_report_when_clean(self):
        assert "no findings" in render_text([])

    def test_json_report_round_trips(self, lint):
        findings = lint("repro/sim/mod.py", TWO_VIOLATIONS)
        payload = json.loads(render_json(findings))
        assert payload["version"] == 1
        assert payload["counts"] == {"REP001": 1, "REP002": 1}
        assert len(payload["findings"]) == 2
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "col", "rule_id", "message"}
        assert first["path"] == "repro/sim/mod.py"

    def test_json_report_when_clean(self):
        payload = json.loads(render_json([]))
        assert payload["findings"] == []
        assert payload["counts"] == {}
