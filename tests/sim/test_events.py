"""Unit tests for the event primitives."""

import pytest

from repro.errors import SchedulingError
from repro.sim import Environment, Event


def test_event_starts_pending():
    env = Environment()
    event = Event(env)
    assert not event.triggered
    assert event.callbacks == []


def test_event_value_unavailable_before_trigger():
    env = Environment()
    event = Event(env)
    with pytest.raises(SchedulingError):
        __ = event.value


def test_succeed_sets_value():
    env = Environment()
    event = Event(env)
    event.succeed(42)
    assert event.triggered
    assert event.value == 42


def test_succeed_twice_is_error():
    env = Environment()
    event = Event(env)
    event.succeed()
    with pytest.raises(SchedulingError):
        event.succeed()


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
