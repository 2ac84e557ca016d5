"""Shared resources: FCFS facilities and stores.

:class:`Resource` models a CSIM-style *facility* — a single server with
a first-come-first-served queue.  The wireless channels are facilities.

:class:`Store` is an unbounded producer/consumer buffer used for message
passing between client and server processes.
"""

from __future__ import annotations

import typing as t
from collections import deque

from repro._units import Seconds
from repro.obs.events import ResourceWait
from repro.sim.events import Event, Timeout

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.bus import EventBus
    from repro.sim.environment import Environment


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager so the resource is always released::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource", "requested_at", "granted_at")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.requested_at = resource.env.now
        #: Set when the claim is granted; ``None`` while still queued.
        self.granted_at: float | None = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """A single-server facility with a FCFS queue."""

    def __init__(
        self,
        env: "Environment",
        name: str = "resource",
        bus: "EventBus | None" = None,
    ) -> None:
        self.env = env
        self.name = name
        #: Optional bus for guarded :class:`ResourceWait` emissions on
        #: release (queueing/holding time per claim); ``None`` keeps the
        #: facility observability-free with zero overhead.
        self.bus = bus
        #: The request holding the server, or ``None`` while idle.
        self._holder: Request | None = None
        self._waiting: deque[Request] = deque()
        # Utilisation accounting (busy integral over time).  The busy
        # fraction is normalised over the resource's own lifetime, so a
        # facility constructed at t>0 is not under-reported.
        self._created = env.now
        self._busy_since = env.now
        self._busy_integral = 0.0

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} users={self.user_count}"
            f" queued={self.queue_length}>"
        )

    @property
    def user_count(self) -> int:
        """Number of requests currently holding the resource (0 or 1)."""
        return 0 if self._holder is None else 1

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim the resource; the returned event fires once granted."""
        self._account()
        request = Request(self)
        if self._holder is None:
            self._grant(request)
        else:
            self._waiting.append(request)
        return request

    def release(self, request: Request) -> None:
        """Give up a granted (or cancel a still-queued) request."""
        self._account()
        if request is self._holder:
            self._holder = None
            if (
                self.bus is not None
                and request.granted_at is not None
                and self.bus.wants(ResourceWait)
            ):
                self.bus.emit(
                    ResourceWait(
                        time=self.env.now,
                        resource=self.name,
                        wait_seconds=(
                            request.granted_at - request.requested_at
                        ),
                        hold_seconds=self.env.now - request.granted_at,
                    )
                )
            if self._waiting:
                self._grant(self._waiting.popleft())
        elif request in self._waiting:
            # Cancelling a queued request is legal (e.g. a process that
            # raised while waiting for the grant leaves its ``with``).
            self._waiting.remove(request)
        # Releasing twice is not an error, so the context-manager form
        # stays exception safe.

    def close(self) -> None:
        """Drop the holder and every queued request, for good.

        A queued request's callbacks hold its waiting process, whose
        generator holds the request: dropping them breaks the cycle.
        The busy time is accounted first, so :meth:`utilization` reads
        as before; a process freed afterwards releases nothing.
        """
        self._account()
        self._holder = None
        waiting, self._waiting = self._waiting, deque()
        for request in waiting:
            request.callbacks = None

    def _grant(self, request: Request) -> None:
        self._holder = request
        request.granted_at = self.env.now
        request.succeed()

    def utilization(self) -> float:
        """Fraction of the resource's lifetime the server was busy.

        Normalised by time elapsed since the resource was *created*, not
        by the absolute clock — a facility constructed at t>0 would
        otherwise under-report for its whole life.
        """
        self._account()
        elapsed = self.env.now - self._created
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / elapsed

    def _account(self) -> None:
        now = self.env.now
        if self._holder is not None:
            self._busy_integral += now - self._busy_since
        self._busy_since = now


class StoreGet(Event):
    """A pending retrieval from a :class:`Store`.

    Fires with the oldest item, or with ``None`` if its ``timeout``
    passes first.  Whichever of a ``put`` and the timeout runs first
    decides the race: a ``put`` defuses the timeout, and an expired get
    leaves the getter queue, so a later item waits for the next get.
    """

    __slots__ = ("store", "timeout")

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        #: The armed deadline, or ``None`` for a get without timeout.
        self.timeout: Timeout | None = None

    def _expire(self, timeout: Event) -> None:
        self.store._getters.remove(self)
        self.succeed(None)


class Store:
    """An unbounded FIFO buffer of arbitrary items.

    ``put`` never blocks; ``get`` returns an event that fires with the
    oldest item as soon as one is available.
    """

    def __init__(self, env: "Environment", name: str = "store") -> None:
        self.env = env
        self.name = name
        self._items: deque[t.Any] = deque()
        self._getters: deque[StoreGet] = deque()

    def __repr__(self) -> str:
        return (
            f"<Store {self.name!r} items={len(self._items)}"
            f" waiting={len(self._getters)}>"
        )

    def __len__(self) -> int:
        return len(self._items)

    def close(self) -> None:
        """Drop every waiting get, for good (a get's callbacks hold its
        waiting process, whose generator may hold this store)."""
        getters, self._getters = self._getters, deque()
        for getter in getters:
            getter.callbacks = None

    def put(self, item: t.Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            if getter.timeout is not None:
                self.env.cancel(getter.timeout)
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self, timeout: Seconds | None = None) -> StoreGet:
        """Return an event that fires with the next available item.

        With a ``timeout`` the event fires with ``None`` instead if no
        item arrives within that many seconds.  An item already in the
        store is handed over at once, with no timeout armed.
        """
        event = StoreGet(self)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
            if timeout is not None:
                expiry = event.timeout = Timeout(self.env, timeout)
                expiry.callbacks.append(event._expire)  # type: ignore[union-attr]
        return event
