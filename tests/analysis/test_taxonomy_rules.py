"""REP009-REP010: event reachability, dead knobs."""

import ast
from pathlib import Path


def ids(findings):
    return sorted({f.rule_id for f in findings})


#: A minimal fake event taxonomy for the REP009 project rule, declared
#: the way ``repro/obs/events.py`` declares events.  ``SimEvent`` is
#: the structural "any event" type, not an event itself.
EVENTS_MODULE = """\
import typing as t
from typing import NamedTuple


class SimEvent(t.Protocol):
    @property
    def time(self) -> float: ...


class GoodEvent(t.NamedTuple):
    time: float
    client_id: int


class PhantomEvent(NamedTuple):
    time: float
    client_id: int


class DeadEvent(t.NamedTuple):
    time: float
    client_id: int
"""

#: Emits GoodEvent and DeadEvent; guards DeadEvent behind wants().
EMITTER_MODULE = """\
from repro.obs.events import DeadEvent, GoodEvent


def tick(bus):
    bus.emit(GoodEvent(0.0, 1))
    if bus.wants(DeadEvent):
        bus.emit(DeadEvent(0.0, 1))
"""

#: Consumes (subscribes to) GoodEvent and PhantomEvent.
CONSUMER_MODULE = """\
from repro.obs.events import GoodEvent, PhantomEvent


def install(bus, sink):
    bus.subscribe(GoodEvent, sink)
    bus.subscribe(PhantomEvent, sink)
"""


class TestREP009EventReachability:
    def test_phantom_and_dead_events_are_flagged(self, lint_project):
        findings = lint_project(
            {
                "repro/obs/events.py": EVENTS_MODULE,
                "repro/client/emitter.py": EMITTER_MODULE,
                "repro/metrics/consumer.py": CONSUMER_MODULE,
            },
            select=["REP009"],
        )
        messages = sorted(f.message for f in findings)
        assert len(findings) == 2
        assert "DeadEvent" in messages[0] and "dead event" in messages[0]
        assert "PhantomEvent" in messages[1]
        assert "phantom" in messages[1]
        # Findings anchor on the declaration in events.py.
        assert all(f.path == "repro/obs/events.py" for f in findings)

    def test_fully_wired_taxonomy_is_clean(self, lint_project):
        findings = lint_project(
            {
                "repro/obs/events.py": EVENTS_MODULE.replace(
                    "PhantomEvent", "GoodEvent2"
                ).replace("DeadEvent", "GoodEvent3"),
                "repro/client/emitter.py": """\
                from repro.obs.events import GoodEvent, GoodEvent2, GoodEvent3


                def tick(bus):
                    bus.emit(GoodEvent(0.0, 1))
                    bus.emit(GoodEvent2(0.0, 1))
                    bus.emit(GoodEvent3(0.0, 1))
                """,
                "repro/metrics/consumer.py": """\
                from repro.obs.events import GoodEvent, GoodEvent2, GoodEvent3


                def install(bus, sink):
                    for cls in (GoodEvent, GoodEvent2, GoodEvent3):
                        bus.subscribe(cls, sink)
                """,
            },
            select=["REP009"],
        )
        assert findings == []

    def test_wants_guard_is_not_consumption(self, lint_project):
        # An event only referenced via bus.wants() at its own emit site
        # has no consumer: still dead.
        findings = lint_project(
            {
                "repro/obs/events.py": EVENTS_MODULE.replace(
                    "PhantomEvent", "GoodEventB"
                ),
                "repro/client/emitter.py": EMITTER_MODULE.replace(
                    "GoodEvent)", "GoodEvent, GoodEventB)"
                ).replace(
                    "bus.emit(GoodEvent(0.0, 1))",
                    "bus.emit(GoodEvent(0.0, 1)); "
                    "bus.emit(GoodEventB(0.0, 1))",
                ),
                "repro/metrics/consumer.py": CONSUMER_MODULE.replace(
                    "PhantomEvent", "GoodEventB"
                ),
            },
            select=["REP009"],
        )
        assert len(findings) == 1
        assert "DeadEvent" in findings[0].message

    def test_suppression_comment_applies(self, lint_project):
        flagged = EVENTS_MODULE.replace(
            "class PhantomEvent(NamedTuple):",
            "class PhantomEvent(NamedTuple):"
            "  # repro: noqa REP009 -- declared for forward compat",
        ).replace(
            "class DeadEvent(t.NamedTuple):",
            "class DeadEvent(t.NamedTuple):"
            "  # repro: noqa REP009 -- audit-only",
        )
        findings = lint_project(
            {
                "repro/obs/events.py": flagged,
                "repro/client/emitter.py": EMITTER_MODULE,
                "repro/metrics/consumer.py": CONSUMER_MODULE,
            },
            select=["REP009"],
        )
        assert findings == []

    def test_the_real_taxonomy_is_fully_declared(self):
        # The rule finds declarations by their form; if that form
        # drifts from events.py the rule goes blind and reports
        # nothing, so pin what it sees on the real module.
        from repro.analysis.rules.taxonomy import declared_events
        from repro.obs import events

        tree = ast.parse(Path(events.__file__).read_text())
        assert set(declared_events(tree)) == {
            cls.__name__ for cls in events.ALL_EVENT_TYPES
        }

    def test_without_events_module_the_rule_is_silent(self, lint_project):
        findings = lint_project(
            {"repro/client/emitter.py": EMITTER_MODULE},
            select=["REP009"],
        )
        assert findings == []


CONFIG_MODULE = """\
import dataclasses


@dataclasses.dataclass
class SimulationConfig:
    used_knob: int = 1
    validated_only_knob: int = 2
    property_backed_knob: float = 0.0

    def validate(self):
        if self.used_knob < 0 or self.validated_only_knob < 0:
            raise ValueError("bad")

    @property
    def derived(self):
        return self.property_backed_knob * 2.0
"""

RUNNER_MODULE = """\
def build(config):
    return config.used_knob + config.derived
"""


class TestREP010UnreadConfigKnob:
    def test_knob_read_only_by_validate_is_flagged(self, lint_project):
        findings = lint_project(
            {
                "repro/experiments/config.py": CONFIG_MODULE,
                "repro/experiments/runner.py": RUNNER_MODULE,
            },
            select=["REP010"],
        )
        assert len(findings) == 1
        assert "validated_only_knob" in findings[0].message
        assert findings[0].path == "repro/experiments/config.py"

    def test_property_backed_knob_counts_as_read(self, lint_project):
        findings = lint_project(
            {
                "repro/experiments/config.py": CONFIG_MODULE,
                "repro/experiments/runner.py": RUNNER_MODULE,
            },
            select=["REP010"],
        )
        assert not any(
            "property_backed_knob" in f.message for f in findings
        )

    def test_without_config_module_the_rule_is_silent(self, lint_project):
        findings = lint_project(
            {"repro/experiments/runner.py": RUNNER_MODULE},
            select=["REP010"],
        )
        assert findings == []

    def test_all_knobs_read_is_clean(self, lint_project):
        findings = lint_project(
            {
                "repro/experiments/config.py": CONFIG_MODULE,
                "repro/experiments/runner.py": RUNNER_MODULE.replace(
                    "config.used_knob",
                    "config.used_knob + config.validated_only_knob",
                ),
            },
            select=["REP010"],
        )
        assert findings == []
