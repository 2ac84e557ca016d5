"""Causality checkers: the request/reply lifecycle, per client.

Every message and lifecycle event must have a cause earlier in the
stream:

* **CAU001** — a :class:`ReplyReceived`, :class:`LateReply` or
  :class:`RequestServed` must name a query some prior
  :class:`RequestSent` of the same client opened (the server cannot
  answer, and the client cannot consume, a request never sent).
* **CAU002** — a :class:`QueryComplete` must be preceded by at least
  one :class:`CacheAccess` of that client since its previous
  completion (results cannot be delivered without resolving a single
  attribute access).
* **CAU003** — remote-round attempts are monotonically numbered:
  attempt 0 opens each round, every retry increments by exactly one,
  and :class:`RequestSent`/:class:`ReplyTimeout` carry the attempt
  number of the round they belong to.
* **CAU004** (reconcile) — each client's own counters equal its
  events: ``queries`` counts :class:`QueryComplete`, ``retries``
  :class:`RemoteRound` past attempt 0, ``timeouts``
  :class:`ReplyTimeout`, ``degraded_queries`` :class:`QueryDegraded`,
  and the uplink series' byte total is the sum of
  :class:`RequestSent` sizes.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.invariants.engine import InvariantChecker, RunContext
from repro.obs.events import (
    CacheAccess,
    LateReply,
    QueryComplete,
    QueryDegraded,
    RemoteRound,
    ReplyReceived,
    ReplyTimeout,
    RequestSent,
    RequestServed,
    SimEvent,
)


@dataclasses.dataclass
class _ClientState:
    """Per-client request/reply lifecycle state."""

    requested: set[int] = dataclasses.field(default_factory=set)
    accesses_since_complete: int = 0
    round_query: int | None = None
    round_attempt: int = -1
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    degraded: int = 0
    uplink_bytes: int = 0


class CausalityChecker(InvariantChecker):
    """CAU001-CAU003 (+CAU004 reconcile): replies pair with requests,
    attempts count up."""

    checker_id = "CAU"
    title = "request/reply causality and retry numbering per client"
    event_types = (
        CacheAccess,
        RemoteRound,
        RequestSent,
        ReplyTimeout,
        LateReply,
        ReplyReceived,
        RequestServed,
        QueryComplete,
        QueryDegraded,
    )

    def __init__(self) -> None:
        super().__init__()
        self._clients: dict[int, _ClientState] = {}

    def _state(self, client_id: int) -> _ClientState:
        state = self._clients.get(client_id)
        if state is None:
            state = _ClientState()
            self._clients[client_id] = state
        return state

    # ------------------------------------------------------------------
    def on_event(self, event: SimEvent) -> None:
        if isinstance(event, CacheAccess):
            self._state(event.client_id).accesses_since_complete += 1
        elif isinstance(event, RemoteRound):
            self._on_round(event)
        elif isinstance(event, RequestSent):
            self._on_request(event)
        elif isinstance(event, ReplyTimeout):
            self._state(event.client_id).timeouts += 1
            self._check_attempt(event, event.attempt, "ReplyTimeout")
        elif isinstance(event, (ReplyReceived, LateReply, RequestServed)):
            self._on_reply_side(event)
        elif isinstance(event, QueryComplete):
            self._on_complete(event)
        elif isinstance(event, QueryDegraded):
            self._state(event.client_id).degraded += 1

    def _on_round(self, event: RemoteRound) -> None:
        state = self._state(event.client_id)
        if event.attempt:
            state.retries += 1
        if event.query_id != state.round_query:
            if event.attempt != 0:
                self.violation(
                    "CAU003",
                    event.time,
                    f"client-{event.client_id}/query-{event.query_id}",
                    f"first RemoteRound of a query has attempt="
                    f"{event.attempt}; rounds must open at attempt 0",
                )
            state.round_query = event.query_id
        elif event.attempt != state.round_attempt + 1:
            self.violation(
                "CAU003",
                event.time,
                f"client-{event.client_id}/query-{event.query_id}",
                f"RemoteRound attempt jumped from "
                f"{state.round_attempt} to {event.attempt}; retries "
                "must increment by exactly one",
            )
        state.round_attempt = event.attempt

    def _on_request(self, event: RequestSent) -> None:
        state = self._state(event.client_id)
        state.requested.add(event.query_id)
        state.uplink_bytes += event.size_bytes
        self._check_attempt(event, event.attempt, "RequestSent")

    def _check_attempt(
        self, event: SimEvent, attempt: int, kind: str
    ) -> None:
        client_id = event.client_id  # type: ignore[attr-defined]
        query_id = event.query_id  # type: ignore[attr-defined]
        state = self._state(client_id)
        if (
            query_id != state.round_query
            or attempt != state.round_attempt
        ):
            self.violation(
                "CAU003",
                event.time,
                f"client-{client_id}/query-{query_id}",
                f"{kind} carries attempt {attempt} but the open round "
                f"is query {state.round_query} attempt "
                f"{state.round_attempt}",
            )

    def _on_reply_side(self, event: SimEvent) -> None:
        client_id = event.client_id  # type: ignore[attr-defined]
        query_id = event.query_id  # type: ignore[attr-defined]
        state = self._state(client_id)
        if query_id not in state.requested:
            self.violation(
                "CAU001",
                event.time,
                f"client-{client_id}/query-{query_id}",
                f"{type(event).__name__} for a query no RequestSent "
                "ever opened",
            )

    def _on_complete(self, event: QueryComplete) -> None:
        state = self._state(event.client_id)
        state.completed += 1
        if state.accesses_since_complete == 0:
            self.violation(
                "CAU002",
                event.time,
                f"client-{event.client_id}/query-{event.query_id}",
                "QueryComplete with no CacheAccess since the client's "
                "previous completion",
            )
        state.accesses_since_complete = 0

    def reconcile(self, context: RunContext) -> None:
        for client_id, metrics in sorted(context.metrics.items()):
            state = self._clients.get(client_id, _ClientState())
            pairs = (
                ("completed queries", state.completed, metrics.queries),
                ("retries", state.retries, metrics.retries),
                ("timeouts", state.timeouts, metrics.timeouts),
                (
                    "degraded queries",
                    state.degraded,
                    metrics.degraded_queries,
                ),
                (
                    "uplink bytes",
                    state.uplink_bytes,
                    metrics.uplink_series.sum,
                ),
            )
            for label, from_events, from_metrics in pairs:
                if from_events != from_metrics:
                    self.violation(
                        "CAU004",
                        0.0,
                        f"client-{client_id}",
                        f"{label} derived from events ({from_events:g}) "
                        f"!= client metrics ({from_metrics:g})",
                    )
