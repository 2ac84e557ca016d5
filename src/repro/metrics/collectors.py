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

from repro._units import Bytes, HOUR, Ratio, Seconds
from repro.metrics.stats import BucketedSeries, Tally

#: Bucket width of every per-client time series (seconds).
DEFAULT_SERIES_BUCKET: Seconds = 0.5 * HOUR


def _series(name: str) -> BucketedSeries:
    return BucketedSeries(DEFAULT_SERIES_BUCKET, name)


class ClientMetrics:
    """All counters for one mobile client.

    The client updates them itself, where it emits the event each
    counter tallies; the invariant checkers reconcile the two
    (DESIGN.md §12).
    """

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
        # -- fault-injection / recovery counters (Experiment #7) --------
        #: Request re-sends after a reply wait expired.
        self.retries = 0
        #: Reply waits that expired (each may trigger a retry).
        self.timeouts = 0
        #: Queries answered cache-only after the retry budget ran out.
        self.degraded_queries = 0
        #: Bytes of the replies the client consumed: primary replies and
        #: prefetch trailers, not the late replies it discards.
        self.goodput_bytes = 0

    def __repr__(self) -> str:
        return (
            f"<ClientMetrics #{self.client_id} hit={self.hit.mean:.3f} "
            f"err={self.error.mean:.3f} resp={self.response.mean:.3f}s>"
        )

    def record_reads(
        self,
        now: Seconds,
        accesses: int,
        hits: int,
        errors: int,
        stale_served: int,
        unanswered: int,
        connected: bool = True,
    ) -> None:
        """One pass of attribute accesses, all stamped ``now``.

        Every access is a hit or a miss.  The answered ones (all but
        ``unanswered``: uncached items while cut off from the server)
        enter the error denominator; only a value served from the
        cache, a hit or one of ``stale_served``, can be an error.
        """
        answered = accesses - unanswered
        if not 0 <= errors <= hits + stale_served <= answered <= accesses:
            raise ValueError(
                f"inconsistent read tally: {accesses} accesses, {hits} "
                f"hits, {errors} errors, {stale_served} stale serves, "
                f"{unanswered} unanswered"
            )
        self.hit.record_batch(now, accesses, hits)
        self.error.record_batch(now, answered, errors)
        if not connected:
            self.disconnected_error.record_batch(now, answered, errors)
        self.stale_served_accesses += stale_served
        self.unanswered_accesses += unanswered

    def record_query(
        self, now: Seconds, response_time: Seconds, connected: bool
    ) -> None:
        self.queries += 1
        self.response.record(response_time)
        self.response_series.record(now, response_time)
        if not connected:
            self.disconnected_queries += 1


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
