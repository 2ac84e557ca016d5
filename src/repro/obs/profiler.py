"""Per-subsystem wall-clock profiler for the simulation kernel.

The kernel's :meth:`Environment.step` is the one chokepoint every
process resumption flows through, so a single timing hook there buys a
complete wall-clock breakdown.  When ``Environment.profiler`` is
``None`` (the default) the hook is one ``if`` per step; when set, each
callback execution is timed with ``perf_counter`` and charged to a
subsystem bucket derived from the process name.

:func:`peak_rss_mib` reads the process's peak resident set size, which
``repro run --profile`` prints beside the breakdown.  Like the
breakdown, it is a measurement of the host, so no deterministic output
carries it.
"""

from __future__ import annotations

import sys
import time

from repro._units import WallSeconds


def bucket_for(name: str) -> str:
    """Collapse a process name into its subsystem bucket.

    Numeric tokens are instance indices, not subsystems: ``client-3``
    and ``client-11`` both charge ``client``; ``server-0-send-17``
    charges ``server-send``.  Unnamed kernel callbacks charge
    ``kernel``.
    """
    if not name:
        return "kernel"
    tokens = [tok for tok in name.split("-") if not tok.isdigit()]
    return "-".join(tokens) if tokens else "kernel"


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far (``ru_maxrss``), in
    MiB.  The kernel reports it in KiB on Linux and in bytes on macOS."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


class WallClockProfiler:
    """Accumulates wall-clock seconds and call counts per bucket."""

    __slots__ = ("seconds", "calls", "_clock")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._clock = time.perf_counter

    def __repr__(self) -> str:
        return (
            f"<WallClockProfiler buckets={len(self.seconds)} "
            f"total={sum(self.seconds.values()):.3f}s>"
        )

    def record(self, name: str, elapsed: WallSeconds) -> None:
        bucket = bucket_for(name)
        self.seconds[bucket] = self.seconds.get(bucket, 0.0) + elapsed
        self.calls[bucket] = self.calls.get(bucket, 0) + 1

    def clock(self) -> WallSeconds:
        """The profiler's time source (``perf_counter``)."""
        return self._clock()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Picklable per-bucket summary, largest share first."""
        total = sum(self.seconds.values())
        out: dict[str, dict[str, float]] = {}
        for bucket in sorted(
            self.seconds, key=lambda b: self.seconds[b], reverse=True
        ):
            secs = self.seconds[bucket]
            out[bucket] = {
                "seconds": round(secs, 6),
                "calls": float(self.calls[bucket]),
                "share": round(secs / total, 4) if total > 0 else 0.0,
            }
        return out
