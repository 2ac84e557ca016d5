"""One good and at least one bad snippet per REP rule."""


def ids(findings):
    return [f.rule_id for f in findings]


class TestREP001WallClock:
    def test_time_time_is_flagged(self, lint):
        findings = lint(
            "repro/sim/mod.py", "import time\nstart = time.time()\n"
        )
        assert ids(findings) == ["REP001"]
        assert findings[0].line == 2

    def test_monotonic_and_datetime_now_are_flagged(self, lint):
        findings = lint(
            "repro/net/mod.py",
            """\
            import time
            import datetime

            a = time.monotonic()
            b = datetime.datetime.now()
            """,
        )
        assert ids(findings) == ["REP001", "REP001"]

    def test_profiler_module_is_exempt(self, lint):
        findings = lint(
            "repro/obs/profiler.py", "import time\nt = time.perf_counter()\n"
        )
        assert findings == []

    def test_env_now_is_fine(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def f(env):\n    return env.now + 5.0\n",
        )
        assert findings == []


class TestREP002Randomness:
    def test_import_random_is_flagged(self, lint):
        assert ids(lint("repro/core/mod.py", "import random\n")) == [
            "REP002"
        ]

    def test_from_random_import_is_flagged(self, lint):
        findings = lint(
            "repro/core/mod.py", "from random import shuffle\n"
        )
        assert ids(findings) == ["REP002"]

    def test_numpy_random_attribute_is_flagged(self, lint):
        findings = lint(
            "repro/core/mod.py",
            "import numpy as np\nx = np.random.rand()\n",
        )
        assert ids(findings) == ["REP002"]

    def test_rand_module_itself_is_exempt(self, lint):
        assert lint("repro/sim/rand.py", "import random\n") == []

    def test_seeded_stream_import_is_fine(self, lint):
        findings = lint(
            "repro/core/mod.py",
            "from repro.sim.rand import RandomStream\n",
        )
        assert findings == []


class TestREP003UnorderedIteration:
    def test_for_over_set_literal_is_flagged(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "for x in {1, 2, 3}:\n    print(x)\n",
        )
        assert ids(findings) == ["REP003"]

    def test_for_over_dict_items_is_flagged(self, lint):
        findings = lint(
            "repro/core/mod.py",
            "def f(d):\n    for k, v in d.items():\n        print(k, v)\n",
        )
        assert ids(findings) == ["REP003"]

    def test_listcomp_over_dict_keys_is_flagged(self, lint):
        findings = lint(
            "repro/net/mod.py",
            "def f(d):\n    return [k for k in d.keys()]\n",
        )
        assert ids(findings) == ["REP003"]

    def test_list_call_on_dict_keys_is_flagged(self, lint):
        # A plain name is not flagged (the rule only fires on provably
        # unordered expressions), but materialising a dict view is.
        findings = lint(
            "repro/client/mod.py",
            "def f(d):\n    return list(d.keys())\n",
        )
        assert ids(findings) == ["REP003"]

    def test_sorted_wrap_is_fine(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def f(d):\n    for k in sorted(d.items()):\n        print(k)\n",
        )
        assert findings == []

    def test_reducer_context_is_fine(self, lint):
        # sum/min/max/... are order-insensitive, so feeding them an
        # unordered comprehension cannot leak hash order into the run.
        findings = lint(
            "repro/core/mod.py",
            "def f(d):\n    return sum(v for v in d.values())\n",
        )
        assert findings == []

    def test_set_comprehension_result_is_fine(self, lint):
        findings = lint(
            "repro/core/mod.py",
            "def f(d):\n    return {k for k in d.keys()}\n",
        )
        assert findings == []

    def test_out_of_scope_package_is_exempt(self, lint):
        # Only the deterministic kernel packages are in scope; metrics
        # post-processing may iterate however it likes.
        findings = lint(
            "repro/metrics/mod.py",
            "def f(d):\n    for k, v in d.items():\n        print(k, v)\n",
        )
        assert findings == []


class TestREP004FloatTimeEquality:
    def test_eq_against_env_now_is_flagged(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def f(env, deadline):\n    return env.now == deadline\n",
        )
        assert ids(findings) == ["REP004"]

    def test_neq_against_deadline_name_is_flagged(self, lint):
        findings = lint(
            "repro/net/mod.py",
            "def f(deadline, t):\n    return t != deadline\n",
        )
        assert ids(findings) == ["REP004"]

    def test_ordering_comparison_is_fine(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def f(env, deadline):\n    return env.now >= deadline\n",
        )
        assert findings == []

    def test_equality_on_unrelated_values_is_fine(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def f(a, b):\n    return a == b\n",
        )
        assert findings == []


class TestREP006YieldEventsOnly:
    def test_bare_yield_is_flagged(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def proc(env):\n    yield\n",
        )
        assert ids(findings) == ["REP006"]

    def test_yield_literal_is_flagged(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def proc(env):\n    yield 5\n",
        )
        assert ids(findings) == ["REP006"]

    def test_yield_timeout_is_fine(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            "def proc(env):\n    yield env.timeout(1.0)\n",
        )
        assert findings == []


class TestREP013MagicLiterals:
    def test_bare_3600_trips_only_rep013(self, lint):
        findings = lint(
            "repro/experiments/mod.py",
            """\
            def horizon(hours: float) -> float:
                return hours * 3600.0
            """,
        )
        assert ids(findings) == ["REP013"]
        assert "HOUR" in findings[0].message

    def test_the_unit_constant_spelling_is_clean(self, lint):
        findings = lint(
            "repro/experiments/mod.py",
            """\
            from repro._units import HOUR

            def horizon(hours: float) -> float:
                return hours * HOUR
            """,
        )
        assert findings == []

    def test_wireless_bandwidth_literal_is_flagged(self, lint):
        findings = lint("repro/net/mod.py", "BANDWIDTH = 19_200\n")
        assert ids(findings) == ["REP013"]
        assert "19.2 * KBPS" in findings[0].message

    def test_non_repro_paths_are_exempt(self, lint):
        assert lint("scripts/mod.py", "BANDWIDTH = 19_200\n") == []

    def test_the_units_module_is_exempt(self, lint):
        findings = lint(
            "repro/_units.py",
            """\
            KBPS = 1_000
            HOUR = 3_600.0
            DAY = 86_400.0
            """,
        )
        assert findings == []

    def test_hours_passed_as_seconds_to_the_warmup_window(self, lint):
        # The hours-for-seconds bug once shipped in the scenario
        # runner's fail-fast: the literal is what gives it away.
        findings = lint(
            "repro/experiments/scenarios/run.py",
            """\
            from repro.metrics.stats import warmup_window

            def fail_fast(plan, w):
                warmup_window(plan.horizon_hours * 3600.0, w)
            """,
        )
        assert ids(findings) == ["REP013"]
        assert findings[0].line == 4
        assert "spell it HOUR" in findings[0].message
