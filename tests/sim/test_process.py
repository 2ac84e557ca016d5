"""Unit tests for process semantics: start, return values, failures."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Environment


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_process_refuses_a_coroutine():
    """A coroutine has ``send`` and ``throw`` too, but the kernel's
    events cannot be awaited, so an ``async def`` body is refused."""
    env = Environment()

    async def worker():
        await env.timeout(1.0)  # type: ignore[misc]

    body = worker()
    try:
        with pytest.raises(SimulationError, match="must be a generator"):
            env.process(body)  # type: ignore[arg-type]
    finally:
        body.close()  # never started: no "never awaited" warning
    assert env.peek() == float("inf")  # nothing was scheduled


def test_process_return_value_becomes_event_value():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert proc.value == "done"


def test_process_waits_on_child_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.0)
        return 99

    def parent(env):
        result = yield env.process(child(env))
        log.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [(2.0, 99)]


def test_process_starts_at_current_time_not_immediately():
    env = Environment()
    log = []

    def worker(env):
        log.append(env.now)
        yield env.timeout(0)

    env.process(worker(env))
    assert log == []  # not started until the run loop spins
    env.run()
    assert log == [0.0]


def test_uncaught_exception_fails_the_process_event():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("oops")

    def parent(env):
        with pytest.raises(KeyError):
            yield env.process(bad(env))

    env.process(parent(env))
    env.run()


def test_unwatched_process_failure_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("unwatched")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unwatched"):
        env.run()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42  # type: ignore[misc]

    env.process(bad(env))
    with pytest.raises(SimulationError, match="not an Event"):
        env.run()


def test_process_yielding_already_processed_event_resumes_same_time():
    env = Environment()
    log = []

    def worker(env):
        timeout = env.timeout(1.0, value="v")
        yield timeout
        # Yield it again after it has been processed.
        value = yield timeout
        log.append((env.now, value))

    env.process(worker(env))
    env.run()
    assert log == [(1.0, "v")]
