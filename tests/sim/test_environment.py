"""Unit tests for the environment run loop and determinism guarantees."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Environment
from repro.sim.events import URGENT


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_can_start_elsewhere():
    assert Environment(initial_time=7.0).now == 7.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_event_returns_its_value():
    env = Environment()

    def worker(env):
        yield env.timeout(4.0)
        return "result"

    proc = env.process(worker(env))
    assert env.run(until=proc) == "result"
    assert env.now == 4.0


def test_run_until_failed_event_raises():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("bad")

    proc = env.process(bad(env))
    with pytest.raises(ValueError, match="bad"):
        env.run(until=proc)


def test_run_until_past_time_is_error():
    env = Environment(initial_time=10.0)
    with pytest.raises(SchedulingError):
        env.run(until=5.0)


def test_run_drains_queue_when_no_until():
    env = Environment()

    def worker(env):
        yield env.timeout(3.0)

    env.process(worker(env))
    env.run()
    assert env.now == 3.0
    assert env.peek() == float("inf")


def test_step_on_empty_queue_is_error():
    with pytest.raises(SimulationError):
        Environment().step()


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    order = []

    def worker(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(worker(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_schedule_into_past_is_error():
    env = Environment()
    with pytest.raises(SchedulingError):
        env.schedule(env.event(), delay=-0.1)


def test_identical_runs_produce_identical_traces():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, tag, delay):
            while env.now < 20:
                yield env.timeout(delay)
                trace.append((env.now, tag))

        env.process(worker(env, "x", 1.5))
        env.process(worker(env, "y", 2.0))
        env.run(until=20)
        return trace

    assert build_and_run() == build_and_run()


def test_run_until_event_already_processed():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return 5

    proc = env.process(worker(env))
    env.run()
    assert env.run(until=proc) == 5


# -- run(until=<time>) horizon semantics --------------------------------
#
# The internal stopper is scheduled at priority -1 and therefore
# preempts even URGENT (priority 0) events at exactly the horizon: the
# measured window is the half-open interval [start, until).  These pins
# make that contract explicit — anything scheduled for *exactly* the
# horizon instant, URGENT events included, is never delivered.


def test_timeout_exactly_at_horizon_does_not_fire():
    env = Environment()
    fired = []

    def worker(env):
        yield env.timeout(10.0)
        fired.append(env.now)

    env.process(worker(env))
    env.run(until=10.0)
    assert fired == []
    assert env.now == 10.0
    # The event is still pending; a later run delivers it.
    env.run()
    assert fired == [10.0]


def test_timeout_strictly_before_horizon_fires():
    env = Environment()
    fired = []

    def worker(env):
        yield env.timeout(10.0 - 1e-9)
        fired.append(env.now)

    env.process(worker(env))
    env.run(until=10.0)
    assert fired == [10.0 - 1e-9]


def test_urgent_event_at_horizon_is_not_delivered():
    env = Environment()
    seen = []
    event = env.event()
    event.callbacks.append(lambda e: seen.append(env.now))
    event._ok = True
    event._value = None
    env.schedule(event, delay=10.0, priority=URGENT)
    env.run(until=10.0)
    assert seen == []
    env.run()
    assert seen == [10.0]


# -- lazy cancellation --------------------------------------------------


def test_cancel_skips_event_at_pop_time():
    env = Environment()
    fired = []
    keep = env.timeout(5.0, value="keep")
    keep.callbacks.append(lambda e: fired.append(e.value))
    drop = env.timeout(5.0, value="drop")
    drop.callbacks.append(lambda e: fired.append(e.value))
    env.cancel(drop)
    assert drop.defused
    assert not drop.processed
    env.run()
    assert fired == ["keep"]
    assert env.now == 5.0


def test_cancel_is_idempotent_and_validated():
    env = Environment()
    pending = env.event()
    with pytest.raises(SchedulingError):
        env.cancel(pending)  # never triggered: holds no queue entry
    timeout = env.timeout(1.0)
    env.cancel(timeout)
    env.cancel(timeout)  # second cancel is a no-op, now and forever
    done = env.timeout(0.5)
    env.run()
    env.cancel(timeout)  # still a no-op after the run
    with pytest.raises(SchedulingError):
        env.cancel(done)  # processed: no queue entry left to skip


def test_cancelled_run_until_target_is_rejected():
    env = Environment()
    timeout = env.timeout(1.0)
    env.cancel(timeout)
    with pytest.raises(SchedulingError):
        env.run(until=timeout)


def test_yielding_defused_event_raises():
    env = Environment()
    lost = env.timeout(1.0)
    env.cancel(lost)

    def waiter(env):
        yield lost

    env.process(waiter(env))
    with pytest.raises(SimulationError, match="defused"):
        env.run()


def test_cancelled_events_leave_clock_and_peek_clean():
    env = Environment()
    early = env.timeout(1.0)
    late = env.timeout(2.0)
    late.callbacks.append(lambda e: None)
    env.cancel(early)
    assert env.peek() == 2.0  # defused head purged, clock untouched
    assert env.now == 0.0
    env.step()
    assert env.now == 2.0
    assert env.peek() == float("inf")


def test_events_processed_counts_only_live_events():
    env = Environment()
    for __ in range(3):
        env.timeout(1.0)
    dropped = env.timeout(1.0)
    env.cancel(dropped)
    env.run()
    assert env.events_processed == 3


def test_same_instant_cascades_preserve_seeded_order():
    # Interleave zero-delay events with ones scheduled earlier for the
    # same instant and assert the (time, priority, insertion) order.
    env = Environment()
    order = []

    def note(tag):
        def callback(event):
            order.append(tag)

        return callback

    def kickoff(env):
        yield env.timeout(1.0)
        # Now at t=1: mix zero-delay NORMAL/URGENT with pre-scheduled.
        a = env.event()
        a._ok, a._value = True, None
        a.callbacks.append(note("zero-normal"))
        env.schedule(a, delay=0.0)
        b = env.event()
        b._ok, b._value = True, None
        b.callbacks.append(note("zero-urgent"))
        env.schedule(b, delay=0.0, priority=URGENT)

    env.process(kickoff(env))
    ahead = env.timeout(1.0, value=None)
    ahead.callbacks.append(note("heap-normal"))
    env.run()
    # The kickoff process resumes first (its Initialize is URGENT at
    # t=0); at t=1 the heap-scheduled timeout (seq earlier) fires before
    # the process's turn creates the zero-delay pair, and the URGENT
    # zero-delay event overtakes the NORMAL one.
    assert order == ["heap-normal", "zero-urgent", "zero-normal"]
