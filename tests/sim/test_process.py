"""Unit tests for process semantics: start, finish, failures."""

import pytest

from repro.errors import SimulationError
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
    with pytest.raises(SimulationError, match="nothing left"):
        env.step()  # nothing was scheduled


def test_finished_process_schedules_nothing():
    env = Environment()
    log = []

    def worker(env):
        yield env.timeout(1.0)
        log.append(env.now)
        return "done"

    env.process(worker(env))
    env.run()
    # The start and the timeout; the return itself is no event.
    assert log == [1.0]
    assert env.events_processed == 2
    with pytest.raises(SimulationError, match="nothing left"):
        env.step()


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


def test_uncaught_exception_propagates_out_of_step():
    env = Environment()
    raised = KeyError("oops")

    def bad(env):
        yield env.timeout(1.0)
        raise raised

    env.process(bad(env))
    env.step()  # the start
    with pytest.raises(KeyError) as caught:
        env.step()
    assert caught.value is raised  # the very exception, not a wrapper
    assert env.now == 1.0


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


def test_yielding_processed_event_raises():
    env = Environment()

    def worker(env):
        timeout = env.timeout(1.0)
        yield timeout
        # Yield it again after it has fired: it will never fire again.
        yield timeout

    env.process(worker(env))
    with pytest.raises(SimulationError, match="processed"):
        env.run()
