"""Unit tests for the event primitives."""

import pytest

from repro.errors import SchedulingError
from repro.sim import Environment, Event


def test_event_starts_pending():
    env = Environment()
    event = env.event()
    assert not event.triggered
    assert not event.processed


def test_event_value_unavailable_before_trigger():
    env = Environment()
    event = env.event()
    with pytest.raises(SchedulingError):
        __ = event.value
    with pytest.raises(SchedulingError):
        __ = event.ok


def test_succeed_sets_value():
    env = Environment()
    event = env.event()
    event.succeed(42)
    assert event.triggered
    assert event.ok
    assert event.value == 42


def test_succeed_twice_is_error():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SchedulingError):
        event.succeed()


def test_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_fail_propagates_into_waiting_process():
    env = Environment()
    event = env.event()
    caught = []

    def waiter(env):
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    event.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unwaited_failed_event_raises_at_step():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_timeout_fires_at_expected_time():
    env = Environment()
    times = []

    def waiter(env):
        yield env.timeout(2.5)
        times.append(env.now)

    env.process(waiter(env))
    env.run()
    assert times == [2.5]


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SchedulingError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def waiter(env):
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(waiter(env))
    env.run()
    assert seen == ["payload"]


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def waiter(env):
        first = env.timeout(1.0, value="fast")
        second = env.timeout(5.0, value="slow")
        values = yield env.any_of([first, second])
        results.append((env.now, list(values.values())))

    env.process(waiter(env))
    env.run()
    assert results == [(1.0, ["fast"])]


def test_any_of_requires_events():
    env = Environment()
    with pytest.raises(SchedulingError):
        env.any_of([])


# -- composite detach (dead-callback leak regression) -------------------
#
# Once a composite triggers, its losing children must not keep the
# composite's collector callback: a long-lived loser would otherwise pin
# the composite (and everything its value dict references) for its whole
# lifetime, and firing it later would invoke a dead collector.  Losing
# bare Timeouts are additionally defused so the kernel never pays to pop
# them at all.


def test_any_of_detaches_loser_callbacks():
    env = Environment()
    winner = env.timeout(1.0, value="fast")
    loser = env.event()
    combo = env.any_of([winner, loser])
    assert len(loser.callbacks) == 1
    env.run()
    assert combo.processed
    assert loser.callbacks == []  # collector detached, event reusable


def test_any_of_defuses_losing_timeout():
    env = Environment()
    winner = env.timeout(1.0, value="fast")
    loser = env.timeout(500.0, value="slow")
    env.any_of([winner, loser])
    env.run()
    # The losing timeout was cancelled lazily: the run ends at t=1
    # instead of idling until t=500 to pop a dead entry.
    assert env.now == 1.0
    assert loser.defused


def test_any_of_does_not_defuse_shared_timeout():
    env = Environment()
    seen = []
    winner = env.timeout(1.0, value="fast")
    shared = env.timeout(2.0, value="slow")
    shared.callbacks.append(lambda event: seen.append(event.value))
    env.any_of([winner, shared])
    env.run()
    # Someone else still listens to the loser: it must fire normally.
    assert seen == ["slow"]
    assert env.now == 2.0
