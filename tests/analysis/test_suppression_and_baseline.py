"""REP022/REP023 suppression hygiene."""


def ids(findings):
    return sorted({f.rule_id for f in findings})


class TestSuppressionHygiene:
    def test_used_waiver_with_reason_is_clean(self, lint):
        source = "import time\nx = time.time()  # repro: noqa REP001 -- startup stamp\n"
        assert lint("repro/sim/mod.py", source) == []

    def test_used_waiver_without_reason_is_flagged(self, lint):
        source = "import time\nx = time.time()  # repro: noqa REP001\n"
        findings = lint("repro/sim/mod.py", source)
        assert ids(findings) == ["REP023"]

    def test_unused_waiver_is_stale(self, lint):
        source = "x = 1  # repro: noqa REP001 -- nothing here\n"
        findings = lint("repro/sim/mod.py", source)
        assert ids(findings) == ["REP022"]
        assert "stale suppression" in findings[0].message

    def test_unknown_rule_id_is_always_stale(self, lint):
        source = "x = 1  # repro: noqa REP999 -- never a rule\n"
        findings = lint("repro/sim/mod.py", source)
        assert ids(findings) == ["REP022"]

    def test_partial_run_never_reports_named_waivers_stale(self, lint):
        # REP002 did not run, so its waiver cannot be judged.
        source = "x = 1  # repro: noqa REP002 -- judged only when REP002 runs\n"
        findings = lint(
            "repro/sim/mod.py", source, select=["REP001", "REP022"]
        )
        assert findings == []

    def test_partial_run_never_reports_bare_waivers_stale(self, lint):
        source = "x = 1  # repro: noqa -- belt and braces\n"
        findings = lint("repro/sim/mod.py", source, ignore=["REP006"])
        assert findings == []

    def test_ignoring_rep013_makes_the_run_partial(self, lint):
        source = "x = 1  # repro: noqa -- belt and braces\n"
        findings = lint("repro/sim/mod.py", source, ignore=["REP013"])
        assert findings == []

    def test_bare_waiver_stale_on_full_run(self, lint):
        source = "x = 1  # repro: noqa -- suppresses nothing\n"
        findings = lint("repro/sim/mod.py", source)
        assert ids(findings) == ["REP022"]

    def test_noqa_text_inside_string_is_not_a_comment(self, lint):
        # tokenize-based scanning: noqa syntax quoted in a string or
        # docstring must not count as a live (and thus stale) waiver.
        source = (
            '"""Docs quoting the spelling:  # repro: noqa REP001."""\n'
            "MESSAGE = 'see # repro: noqa REP003'\n"
        )
        assert lint("repro/sim/mod.py", source) == []

    def test_waiver_hygiene_cannot_be_self_suppressed(self, lint):
        # A bare noqa must not excuse its own missing reason.
        source = "import time\nx = time.time()  # repro: noqa\n"
        findings = lint("repro/sim/mod.py", source)
        assert "REP023" in ids(findings)
