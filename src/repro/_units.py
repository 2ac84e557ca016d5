"""Unit helpers, physical constants and the unit aliases.

All simulated time is in **seconds**, all sizes in **bytes** and all
bandwidths in **bits per second**, matching the units in Section 4 of the
paper (19.2 Kbps wireless channels, 40 Mbps disk, 100 Mbps memory).

Two layers live here:

* **Constants and converters** (``KBPS``, ``HOUR``,
  :func:`transmission_time`, ...) — the only place bandwidth/size/horizon
  magic numbers may be spelled out (rule REP013 enforces this).
* **Unit aliases** (:data:`Seconds`, :data:`Bytes`, :data:`Bps`, ...) —
  plain ``float``/``int`` aliases that name a value's unit in a
  signature or a dataclass field.  They check nothing: a ``Seconds`` is
  a ``float``.

The sim-time vs wall-time split matters: :data:`Seconds` means
*simulated* seconds (the ``Environment`` clock), :data:`WallSeconds`
means host wall-clock seconds (``time.perf_counter`` and friends).
Only the profiler and the executor's run metadata hold the latter
(rule REP001 keeps wall-clock reads out of everything else).
"""

from __future__ import annotations


#: Simulated seconds — the ``Environment`` clock's unit.
Seconds = float
#: Host wall-clock seconds (``time.perf_counter`` readings); never mix
#: with simulated time.
WallSeconds = float
#: Horizon-style durations expressed in hours; multiply by :data:`HOUR`
#: to obtain simulated seconds.
Hours = float
#: Payload / cache-capacity sizes in bytes.
Bytes = float
#: Sizes already converted to bits (``bytes * BITS_PER_BYTE``).
Bits = float
#: Bandwidths in bits per second.
Bps = float
#: Event rates in events per (simulated) second.
PerSecond = float
#: Dimensionless fractions: probabilities, utilizations, hit ratios.
Ratio = float
#: Dimensionless cardinalities: clients, objects, retries.
Count = int
#: The bits-per-byte conversion factor's own dimension.
BitsPerByte = int

#: Bits per byte; pulled into a constant so size/bandwidth conversions read
#: as intent rather than magic numbers.
BITS_PER_BYTE: BitsPerByte = 8

#: One kilobit per second, in bits per second.
KBPS: Bps = 1_000
#: One megabit per second, in bits per second.
MBPS: Bps = 1_000_000

#: Seconds per minute/hour/day for readable horizon arithmetic.
MINUTE: Seconds = 60.0
HOUR: Seconds = 3_600.0
DAY: Seconds = 86_400.0


def transmission_time(size_bytes: Bytes, bandwidth_bps: Bps) -> Seconds:
    """Return the seconds needed to move ``size_bytes`` at ``bandwidth_bps``.

    >>> transmission_time(1024, 19_200)  # one object over a wireless channel
    0.4266666666666667
    """
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps!r}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes!r}")
    return (size_bytes * BITS_PER_BYTE) / bandwidth_bps


def hours(value: Hours) -> Seconds:
    """Convert hours to simulation seconds."""
    return value * HOUR


def days(value: float) -> Seconds:
    """Convert days to simulation seconds."""
    return value * DAY
