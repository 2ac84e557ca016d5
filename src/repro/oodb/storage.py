"""Access-time model for disks and memory.

Section 4: "The bandwidth of disk is set to 40 Mbps to model fast SCSI
disk while that of memory is set to 100 Mbps."  A :class:`StorageModel`
stacks a memory :class:`~repro.oodb.buffer.BufferPool` in front of a disk:
buffer hits cost memory time, misses cost disk time (and fault the object
into the buffer).
"""

from __future__ import annotations

import typing as t

from repro._units import MBPS, transmission_time
from repro.oodb.buffer import BufferPool

#: Paper defaults.
DISK_BANDWIDTH_BPS = 40 * MBPS
MEMORY_BANDWIDTH_BPS = 100 * MBPS


class Medium:
    """A storage medium characterised by its bandwidth.

    The bandwidth is fixed at construction (it is read-only), so the
    time for a given size never changes and is memoized.  A run uses
    few distinct sizes: reads move attribute or object sizes, and a
    client's disk sees each reply's total write size (54 distinct ones
    in a 3-hour ``paper-hc`` run).
    """

    def __init__(self, bandwidth_bps: float, name: str = "medium") -> None:
        if bandwidth_bps <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {bandwidth_bps!r}"
            )
        self._bandwidth_bps = bandwidth_bps
        self.name = name
        self._times: dict[float, float] = {}

    def __repr__(self) -> str:
        return f"<Medium {self.name!r} {self.bandwidth_bps:g} bps>"

    @property
    def bandwidth_bps(self) -> float:
        return self._bandwidth_bps

    def access_time(self, size_bytes: float) -> float:
        """Seconds to move ``size_bytes`` through this medium."""
        seconds = self._times.get(size_bytes)
        if seconds is None:
            seconds = self._times[size_bytes] = transmission_time(
                size_bytes, self._bandwidth_bps
            )
        return seconds


class StorageModel:
    """Memory buffer over a disk; computes per-access service times."""

    def __init__(
        self,
        buffer_capacity: int,
        disk_bandwidth_bps: float = DISK_BANDWIDTH_BPS,
        memory_bandwidth_bps: float = MEMORY_BANDWIDTH_BPS,
        name: str = "storage",
    ) -> None:
        self.buffer = BufferPool(buffer_capacity, name=f"{name}-buffer")
        self.disk = Medium(disk_bandwidth_bps, name=f"{name}-disk")
        self.memory = Medium(memory_bandwidth_bps, name=f"{name}-memory")
        self.name = name

    def __repr__(self) -> str:
        return f"<StorageModel {self.name!r} buffer={self.buffer.capacity}>"

    def access(self, key: t.Hashable, size_bytes: float) -> float:
        """Service time for reading ``key``; faults it into the buffer."""
        if self.buffer.access(key):
            return self.memory.access_time(size_bytes)
        return self.disk.access_time(size_bytes) + self.memory.access_time(
            size_bytes
        )

    def write(self, key: t.Hashable, size_bytes: float) -> float:
        """Service time for writing ``key`` through to disk."""
        self.buffer.access(key)
        return self.disk.access_time(size_bytes)

    @property
    def buffer_hit_ratio(self) -> float:
        return self.buffer.hit_ratio
