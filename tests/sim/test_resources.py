"""Unit tests for FCFS resources and stores."""

import pytest

from repro.sim import Environment, Resource, Store


def test_single_server_serializes_holders():
    env = Environment()
    resource = Resource(env)
    log = []

    def worker(env, tag, hold):
        with resource.request() as req:
            yield req
            log.append(("start", tag, env.now))
            yield env.timeout(hold)
            log.append(("end", tag, env.now))

    env.process(worker(env, "a", 2.0))
    env.process(worker(env, "b", 3.0))
    env.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 2.0),
        ("start", "b", 2.0),
        ("end", "b", 5.0),
    ]


def test_fcfs_order_is_arrival_order():
    env = Environment()
    resource = Resource(env)
    served = []

    def worker(env, tag, arrive):
        yield env.timeout(arrive)
        with resource.request() as req:
            yield req
            served.append(tag)
            yield env.timeout(10.0)

    env.process(worker(env, "first", 1.0))
    env.process(worker(env, "second", 2.0))
    env.process(worker(env, "third", 3.0))
    env.run()
    assert served == ["first", "second", "third"]


def test_release_of_queued_request_cancels_it():
    env = Environment()
    resource = Resource(env)
    served = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(5.0)

    def impatient(env):
        request = resource.request()
        yield env.timeout(1.0)  # give up before being served
        resource.release(request)
        served.append("impatient gave up")

    def patient(env):
        yield env.timeout(0.5)
        with resource.request() as req:
            yield req
            served.append(("patient", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert ("patient", 5.0) in served


def test_cancel_mid_queue_keeps_the_rest_fcfs():
    env = Environment()
    resource = Resource(env)
    served = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(5.0)

    def worker(env, tag, arrive):
        yield env.timeout(arrive)
        with resource.request() as req:
            yield req
            served.append((tag, env.now))
            yield env.timeout(1.0)

    def quitter(env):
        yield env.timeout(1.5)
        request = resource.request()
        yield env.timeout(1.0)  # still queued behind the holder
        resource.release(request)
        resource.release(request)  # a second cancel is a no-op
        served.append(("quitter gave up", env.now))

    env.process(holder(env))
    env.process(worker(env, "first", 1.0))
    env.process(quitter(env))
    env.process(worker(env, "third", 2.0))
    env.process(worker(env, "fourth", 3.0))
    env.run(until=4.0)
    assert resource.queue_length == 3  # first, third, fourth
    env.run()
    assert served == [
        ("quitter gave up", 2.5),
        ("first", 5.0),
        ("third", 6.0),
        ("fourth", 7.0),
    ]
    assert resource.queue_length == 0


def test_double_release_is_harmless():
    env = Environment()
    resource = Resource(env)

    def worker(env):
        request = resource.request()
        yield request
        resource.release(request)
        resource.release(request)

    env.process(worker(env))
    env.run()
    assert resource.user_count == 0


def test_utilization_accounting():
    env = Environment()
    resource = Resource(env)

    def worker(env):
        with resource.request() as req:
            yield req
            yield env.timeout(4.0)

    env.process(worker(env))
    env.run(until=8.0)
    assert resource.utilization() == pytest.approx(0.5)


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    store.put("msg")
    env.process(consumer(env))
    env.run()
    assert got == [(0.0, "msg")]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(3.0)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(3.0, "late")]


def test_store_fifo_across_getters():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer(env, "c1"))
    env.process(consumer(env, "c2"))

    def producer(env):
        yield env.timeout(1.0)
        store.put("first")
        store.put("second")

    env.process(producer(env))
    env.run()
    assert got == [("c1", "first"), ("c2", "second")]


def test_store_len_counts_buffered_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_utilization_normalized_by_resource_lifetime():
    """A facility created at t>0 must not under-report its busy share."""
    env = Environment()
    created = []

    def late_creator(env):
        yield env.timeout(4.0)
        resource = Resource(env)
        created.append(resource)
        with resource.request() as req:
            yield req
            yield env.timeout(2.0)

    env.process(late_creator(env))
    env.run(until=8.0)
    # Busy 2 s of the 4 s since creation — not 2 of 8 absolute seconds.
    assert created[0].utilization() == pytest.approx(0.5)


def test_utilization_zero_at_creation_instant():
    env = Environment()
    resource = Resource(env)
    assert resource.utilization() == 0.0


# -- timed get -----------------------------------------------------------
#
# ``get(timeout)`` fires with the oldest item, or with ``None`` once the
# timeout passes.  Whichever of the put and the timeout runs first
# decides the race; the loser leaves nothing live behind.


def test_timed_get_returns_item_put_before_deadline():
    env = Environment()
    store = Store(env)
    got = []

    def waiter(env):
        got.append((yield store.get(timeout=5.0)))

    def producer(env):
        yield env.timeout(2.0)
        store.put("reply")

    env.process(waiter(env))
    env.process(producer(env))
    env.run()
    assert got == ["reply"]
    # The deadline was defused: the run ends at the put, not at t=5, and
    # its heap entry is skipped rather than counted.
    assert env.now == 2.0
    # Two process starts, the producer's timeout and the get.
    assert env.events_processed == 4


def test_timed_get_expiry_gives_none_and_leaves_no_getter():
    env = Environment()
    store = Store(env)
    got = []

    def waiter(env):
        item = yield store.get(timeout=1.5)
        got.append((env.now, item))

    env.process(waiter(env))
    env.run()
    assert got == [(1.5, None)]
    assert not store._getters
    store.put("later")  # nobody waits: the item is kept
    assert len(store) == 1


def test_store_interrupted_getter_does_not_lose_item():
    """An item put at the instant a get's timeout already fired survives.

    The client's reply wait: the put lands at the timeout's instant,
    after the timeout has decided the race, so the get fires with
    ``None`` and the item stays in the store for the next get.
    """
    env = Environment()
    store = Store(env)
    got = []

    def waiter(env):
        got.append(("waiter", (yield store.get(timeout=1.0))))

    def producer(env):
        yield env.timeout(1.0)
        store.put("payload")

    def successor(env):
        yield env.timeout(2.0)
        got.append(("successor", (yield store.get(timeout=1.0))))

    env.process(waiter(env))
    env.process(producer(env))
    env.process(successor(env))
    env.run()
    assert got == [("waiter", None), ("successor", "payload")]


def test_timed_get_of_buffered_item_arms_no_timeout():
    env = Environment()
    store = Store(env)
    store.put("ready")
    event = store.get(timeout=10.0)
    assert event.timeout is None
    assert event.value == "ready"
    env.run()
    assert env.now == 0.0
    assert env.events_processed == 1
