"""Access-time model for disks and memory.

Section 4: "The bandwidth of disk is set to 40 Mbps to model fast SCSI
disk while that of memory is set to 100 Mbps."  A :class:`StorageModel`
stacks a memory buffer in front of a disk: buffer hits cost memory time,
misses cost disk time (and fault the object into the buffer).

The paper fixes LRU for the *memory* buffer at both the server and the
clients ("memory buffer replacement is implemented by the operating
system"), independent of the storage-cache replacement policy under
study.  The buffer is item-count based (it holds whole objects).
"""

from __future__ import annotations

import typing as t
from collections import OrderedDict

from repro._units import MBPS, transmission_time
from repro.errors import CacheError

#: Paper defaults.
DISK_BANDWIDTH_BPS = 40 * MBPS
MEMORY_BANDWIDTH_BPS = 100 * MBPS


class StorageModel:
    """An LRU memory buffer over a disk; computes per-access service times.

    The bandwidths are fixed at construction (read-only).
    """

    def __init__(
        self,
        buffer_capacity: int,
        disk_bandwidth_bps: float = DISK_BANDWIDTH_BPS,
        memory_bandwidth_bps: float = MEMORY_BANDWIDTH_BPS,
        name: str = "storage",
    ) -> None:
        if buffer_capacity < 0:
            raise CacheError(
                f"capacity must be >= 0, got {buffer_capacity!r}"
            )
        for bandwidth_bps in (disk_bandwidth_bps, memory_bandwidth_bps):
            if bandwidth_bps <= 0:
                raise ValueError(
                    f"bandwidth must be positive, got {bandwidth_bps!r}"
                )
        self.buffer_capacity = buffer_capacity
        self._disk_bps = disk_bandwidth_bps
        self._memory_bps = memory_bandwidth_bps
        self.name = name
        self._buffer: OrderedDict[t.Hashable, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return f"<StorageModel {self.name!r} buffer={self.buffer_capacity}>"

    @property
    def disk_bandwidth_bps(self) -> float:
        return self._disk_bps

    @property
    def memory_bandwidth_bps(self) -> float:
        return self._memory_bps

    def access(self, key: t.Hashable, size_bytes: float) -> float:
        """Service time for reading ``key``; faults it into the buffer,
        evicting the least recently used entry if the buffer is full.
        A zero-capacity buffer never hits."""
        memory_time = transmission_time(size_bytes, self._memory_bps)
        buffer = self._buffer
        if key in buffer:
            buffer.move_to_end(key)
            self.hits += 1
            return memory_time
        self.misses += 1
        if self.buffer_capacity:
            if len(buffer) >= self.buffer_capacity:
                buffer.popitem(last=False)
            buffer[key] = None
        return transmission_time(size_bytes, self._disk_bps) + memory_time

    def write(self, key: t.Hashable, size_bytes: float) -> float:
        """Service time for writing ``key`` through to disk; the buffer
        sees it as it sees a read."""
        self.access(key, size_bytes)
        return self.disk_time(size_bytes)

    def disk_time(self, size_bytes: float) -> float:
        """Seconds to move ``size_bytes`` to or from the disk."""
        return transmission_time(size_bytes, self._disk_bps)

    @property
    def buffer_hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
