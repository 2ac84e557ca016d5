"""Per-client and system-wide metric collection.

The paper's three headline metrics (Section 5):

* **cache hit ratio** — share of attribute accesses satisfied by a
  locally *unexpired* cached item;
* **response time** — seconds from query issue to results generated
  (locally or after the remote round);
* **error rate** — share of *answered* read accesses that consumed a
  value already overwritten at the server (checked against the
  perfect-knowledge oracle).  Reads that return nothing (uncached items
  during disconnection) cannot be erroneous and are excluded from the
  error denominator; they still count as misses for the hit ratio.
"""

from __future__ import annotations

import dataclasses

from repro._units import Bytes, HOUR, Ratio, Seconds
from repro.metrics.stats import BucketedSeries, Tally
from repro.obs.bus import EventBus
from repro.obs.events import (
    CacheAccess,
    LateReply,
    QueryComplete,
    QueryDegraded,
    RemoteRound,
    ReplyReceived,
    ReplyTimeout,
    RequestSent,
)

#: Bucket width of every per-client time series (seconds).
DEFAULT_SERIES_BUCKET: Seconds = 0.5 * HOUR


def _series(name: str) -> BucketedSeries:
    return BucketedSeries(DEFAULT_SERIES_BUCKET, name)


class ClientMetrics:
    """All counters for one mobile client."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        #: Hit (1) or miss (0) per access, in half-hour buckets: the
        #: whole-run mean is the hit ratio, a windowed mean its
        #: warm-up-truncated value, the buckets its dynamics.
        self.hit = _series("hit")
        #: Error (1) or not (0) per answered read, same buckets.
        self.error = _series("error")
        #: Errors among value-consuming reads made *while disconnected*
        #: (the paper's Experiment #6 lens).
        self.disconnected_error = _series("disconnected-error")
        #: Response time over time, for warm-up truncation of means.
        self.response_series = _series("response")
        #: Uplink bytes over time (request sizes), for windowed totals.
        self.uplink_series = _series("uplink")
        self.response = Tally("response")
        self.queries = 0
        self.disconnected_queries = 0
        self.remote_rounds = 0
        self.unanswered_accesses = 0
        self.stale_served_accesses = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        # -- fault-injection / recovery counters (Experiment #7) --------
        #: Request re-sends after a reply wait expired.
        self.retries = 0
        #: Reply waits that expired (each may trigger a retry).
        self.timeouts = 0
        #: Queries answered cache-only after the retry budget ran out.
        self.degraded_queries = 0
        #: Replies for an abandoned earlier attempt, discarded on arrival.
        self.late_replies = 0
        #: Attribute writes lost because no attempt reached the server.
        self.lost_updates = 0
        #: Bytes of replies actually consumed (vs ``bytes_received`` raw).
        self.goodput_bytes = 0

    def __repr__(self) -> str:
        return (
            f"<ClientMetrics #{self.client_id} hit={self.hit.mean:.3f} "
            f"err={self.error.mean:.3f} resp={self.response.mean:.3f}s>"
        )

    def record_access(
        self,
        now: Seconds,
        is_hit: bool,
        is_error: bool,
        answered: bool = True,
        connected: bool = True,
    ) -> None:
        """One attribute access: hit/miss plus error-oracle outcome.

        ``answered`` is ``False`` for reads that returned no value at all
        (uncached items during disconnection); they count as misses but
        stay out of the error denominator.
        """
        self.hit.record(now, is_hit)
        if answered:
            self.error.record(now, is_error)
            if not connected:
                self.disconnected_error.record(now, is_error)
        elif is_error:
            raise ValueError("an unanswered read cannot be an error")

    def record_query(
        self, now: Seconds, response_time: Seconds, connected: bool
    ) -> None:
        self.queries += 1
        self.response.record(response_time)
        self.response_series.record(now, response_time)
        if not connected:
            self.disconnected_queries += 1


class MetricsSink:
    """The bus subscriber that builds every :class:`ClientMetrics`.

    Domain code emits events; this sink folds them into the same
    counters the pre-bus code mutated inline, reproducing the headline
    numbers exactly (the mapping below mirrors the old call sites one
    to one).  One sink is shared per bus — :meth:`install` registers it
    under ``bus.sinks["metrics"]`` and is idempotent — and each client
    keeps a stable handle to its :class:`ClientMetrics` via
    :meth:`client`.
    """

    SINK_NAME = "metrics"

    def __init__(self) -> None:
        self._clients: dict[int, ClientMetrics] = {}

    def __repr__(self) -> str:
        return f"<MetricsSink clients={len(self._clients)}>"

    @classmethod
    def install(cls, bus: EventBus) -> "MetricsSink":
        """The bus's shared metrics sink, subscribing it on first use."""
        existing = bus.sinks.get(cls.SINK_NAME)
        if isinstance(existing, cls):
            return existing
        sink = cls()
        bus.sinks[cls.SINK_NAME] = sink
        bus.subscribe(CacheAccess, sink.on_access)
        bus.subscribe(QueryComplete, sink.on_query_complete)
        bus.subscribe(QueryDegraded, sink.on_query_degraded)
        bus.subscribe(RemoteRound, sink.on_remote_round)
        bus.subscribe(RequestSent, sink.on_request_sent)
        bus.subscribe(ReplyTimeout, sink.on_reply_timeout)
        bus.subscribe(LateReply, sink.on_late_reply)
        bus.subscribe(ReplyReceived, sink.on_reply_received)
        return sink

    def client(self, client_id: int) -> ClientMetrics:
        """The (stable) per-client metrics object, created on demand."""
        metrics = self._clients.get(client_id)
        if metrics is None:
            metrics = ClientMetrics(client_id)
            self._clients[client_id] = metrics
        return metrics

    # -- handlers -------------------------------------------------------
    def on_access(self, event: CacheAccess) -> None:
        # Runs once per attribute access: one probe for the client's
        # metrics, and a positional call.
        metrics = self._clients.get(event.client_id)
        if metrics is None:
            metrics = self.client(event.client_id)
        answered = event.answered
        metrics.record_access(
            event.time, event.hit, event.error, answered, event.connected
        )
        if event.stale_served:
            metrics.stale_served_accesses += 1
        if not answered:
            metrics.unanswered_accesses += 1

    def on_query_complete(self, event: QueryComplete) -> None:
        self.client(event.client_id).record_query(
            event.time, event.response_seconds, event.connected
        )

    def on_query_degraded(self, event: QueryDegraded) -> None:
        metrics = self.client(event.client_id)
        metrics.degraded_queries += 1
        metrics.lost_updates += event.lost_updates

    def on_remote_round(self, event: RemoteRound) -> None:
        # Attempt 0 opens the round; every later attempt is a retry.
        metrics = self.client(event.client_id)
        if event.attempt == 0:
            metrics.remote_rounds += 1
        else:
            metrics.retries += 1

    def on_request_sent(self, event: RequestSent) -> None:
        metrics = self.client(event.client_id)
        metrics.bytes_sent += event.size_bytes
        metrics.uplink_series.record(event.time, float(event.size_bytes))

    def on_reply_timeout(self, event: ReplyTimeout) -> None:
        self.client(event.client_id).timeouts += 1

    def on_late_reply(self, event: LateReply) -> None:
        # Late replies are discarded unread: counted, but their bytes
        # never enter bytes_received/goodput (matching the old path).
        self.client(event.client_id).late_replies += 1

    def on_reply_received(self, event: ReplyReceived) -> None:
        metrics = self.client(event.client_id)
        metrics.bytes_received += event.size_bytes
        metrics.goodput_bytes += event.size_bytes


@dataclasses.dataclass
class SummaryRow:
    """One aggregated result line, as printed in reports."""

    label: str
    hit_ratio: Ratio
    response_time: Seconds
    error_rate: Ratio
    queries: int

    def formatted(self) -> str:
        return (
            f"{self.label:<28} hit={self.hit_ratio:6.2%} "
            f"resp={self.response_time:8.3f}s err={self.error_rate:6.2%} "
            f"(n={self.queries})"
        )


class MetricsSummary:
    """Aggregate of all clients' metrics for one simulation run."""

    def __init__(self, clients: list[ClientMetrics]) -> None:
        if not clients:
            raise ValueError("summary needs at least one client")
        self.clients = list(clients)
        self.hit = _series("hit")
        self.error = _series("error")
        self.disconnected_error = _series("disconnected-error")
        self.response_series = _series("response")
        self.uplink_series = _series("uplink")
        #: Welford mean over every query, merged in client order.
        self.response = Tally("response")
        for client in self.clients:
            self.hit.merge(client.hit)
            self.error.merge(client.error)
            self.disconnected_error.merge(client.disconnected_error)
            self.response_series.merge(client.response_series)
            self.uplink_series.merge(client.uplink_series)
            self.response.merge(client.response)

    def __repr__(self) -> str:
        return (
            f"<MetricsSummary hit={self.hit_ratio:.3f} "
            f"err={self.error_rate:.3f} resp={self.response_time:.3f}s>"
        )

    @property
    def hit_ratio(self) -> Ratio:
        return self.hit.mean

    @property
    def error_rate(self) -> Ratio:
        return self.error.mean

    @property
    def disconnected_error_rate(self) -> Ratio:
        """Error share of value-consuming reads made while disconnected."""
        return self.disconnected_error.mean

    @property
    def response_time(self) -> Seconds:
        """Mean response time across all queries of all clients."""
        return self.response.mean

    @property
    def total_queries(self) -> int:
        return sum(client.queries for client in self.clients)

    @property
    def total_accesses(self) -> int:
        return self.hit.count

    # -- fault-injection / recovery totals (Experiment #7) -------------
    @property
    def total_retries(self) -> int:
        return sum(client.retries for client in self.clients)

    @property
    def total_timeouts(self) -> int:
        return sum(client.timeouts for client in self.clients)

    @property
    def total_degraded_queries(self) -> int:
        return sum(client.degraded_queries for client in self.clients)

    @property
    def total_goodput_bytes(self) -> Bytes:
        return sum(client.goodput_bytes for client in self.clients)

    @property
    def total_bytes_sent(self) -> int:
        """Uplink bytes across all clients (request messages entered)."""
        return sum(client.bytes_sent for client in self.clients)

    def response_confidence_interval(
        self, level: float = 0.95
    ) -> tuple[float, float]:
        return self.response.confidence_interval(level)

    def row(self, label: str) -> SummaryRow:
        return SummaryRow(
            label=label,
            hit_ratio=self.hit_ratio,
            response_time=self.response_time,
            error_rate=self.error_rate,
            queries=self.total_queries,
        )
