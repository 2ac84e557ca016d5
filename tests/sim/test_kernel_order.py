"""The event heap against an obviously correct reference order.

The reference is a plain list kept sorted by ``(time, priority,
insertion)`` with eager removal on cancel.  Hypothesis draws small
programs: events at delays {0, 0.5, 1.0} and priorities {-1, 0, 1},
cancels of earlier events, and callbacks that schedule more events
(zero-delay ones land at the current instant) or cancel when they fire.
Both sides run the same program step by step; the firing order, the
clock and ``events_processed`` must agree throughout.
"""

import bisect
import typing as t

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Event

DELAYS = (0.0, 0.5, 1.0)
PRIORITIES = (-1, 0, 1)

# A node is (delay, priority, actions run when it fires); an action is
# ("schedule", node) or ("cancel", k), which cancels the k-th event
# scheduled so far (modulo their number) if it has not fired yet.
delays = st.sampled_from(DELAYS)
priorities = st.sampled_from(PRIORITIES)
cancels = st.tuples(st.just("cancel"), st.integers(0, 63))
nodes = st.recursive(
    st.tuples(delays, priorities, st.just(())),
    lambda children: st.tuples(
        delays,
        priorities,
        st.lists(
            st.one_of(st.tuples(st.just("schedule"), children), cancels),
            max_size=4,
        ).map(tuple),
    ),
    max_leaves=24,
)
programs = st.lists(
    st.one_of(st.tuples(st.just("schedule"), nodes), cancels),
    min_size=1,
    max_size=12,
)


class Reference:
    """Sorted-list kernel: pop the head, remove cancelled entries eagerly."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending: list[tuple[float, int, int]] = []
        self.actions: list[tuple[t.Any, ...]] = []
        self.fired: list[int] = []

    def run_actions(self, actions: t.Iterable[tuple[str, t.Any]]) -> None:
        for kind, arg in actions:
            if kind == "schedule":
                delay, priority, on_fire = arg
                insertion = len(self.actions)
                self.actions.append(on_fire)
                bisect.insort(self.pending, (self.now + delay, priority, insertion))
            elif self.actions:
                target = arg % len(self.actions)
                for entry in self.pending:
                    if entry[2] == target:
                        self.pending.remove(entry)
                        break

    def step(self) -> None:
        self.now, __, insertion = self.pending.pop(0)
        self.fired.append(insertion)
        self.run_actions(self.actions[insertion])


class Kernel:
    """The same program driven through :class:`Environment`."""

    def __init__(self) -> None:
        self.env = Environment()
        self.events: list[Event] = []
        self.fired: list[int] = []

    def run_actions(self, actions: t.Iterable[tuple[str, t.Any]]) -> None:
        for kind, arg in actions:
            if kind == "schedule":
                delay, priority, on_fire = arg
                event = Event(self.env)
                event._value = len(self.events)
                event.callbacks.append(self._fire(on_fire))
                self.env.schedule(event, delay=delay, priority=priority)
                self.events.append(event)
            elif self.events:
                target = self.events[arg % len(self.events)]
                # A processed or defused target is a no-op.
                if target.callbacks is not None:
                    self.env.cancel(target)

    def _fire(self, on_fire: tuple[t.Any, ...]) -> t.Callable[[Event], None]:
        def callback(event: Event) -> None:
            self.fired.append(event.value)
            self.run_actions(on_fire)

        return callback


@settings(max_examples=300, deadline=None)
@given(programs)
def test_event_order_matches_sorted_reference(program):
    reference, kernel = Reference(), Kernel()
    reference.run_actions(program)
    kernel.run_actions(program)
    while reference.pending:
        reference.step()
        kernel.env.step()
        assert kernel.env.now == reference.now
        assert kernel.fired == reference.fired
        assert kernel.env.events_processed == len(reference.fired)
    assert kernel.env.events_processed == len(reference.fired)
    with pytest.raises(SimulationError, match="nothing left"):
        kernel.env.step()  # no live event outlasts the reference


@settings(max_examples=100, deadline=None)
@given(programs)
def test_run_fires_the_reference_order(program):
    reference, kernel = Reference(), Kernel()
    reference.run_actions(program)
    kernel.run_actions(program)
    while reference.pending:
        reference.step()
    kernel.env.run()
    assert kernel.fired == reference.fired
    assert kernel.env.events_processed == len(reference.fired)
    assert kernel.env.now == reference.now
