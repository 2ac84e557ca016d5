"""Count-Min-Sketch frequency estimation for admission-aware policies.

The sketch answers "how often was this key touched recently?" in O(1)
space per row with two refinements from the TinyLFU literature:

* **conservative increment** — only the row counters equal to the
  current minimum estimate are bumped, which provably never loosens the
  over-estimate and sharply reduces collision inflation;
* **periodic halving** — once ``reset_interval`` increments have been
  absorbed, every counter is right-shifted by one.  Halving forgets
  stale history at a bounded rate, so the estimate tracks *recent*
  popularity instead of all-time popularity (the aging mechanism the
  W-TinyLFU admission filter relies on).

Counters saturate at ``max_count`` (4-bit style), which keeps the
halving cheap and bounds the damage any single hot key can do to the
estimates of colliding keys.

Hashing must be independent of ``PYTHONHASHSEED``: simulation workers
run in separate processes and the determinism smoke test re-runs the
suite under a different hash seed, so the builtin ``hash()`` is off
limits.  Keys are encoded through their (deterministic) ``repr`` and
digested with BLAKE2b; the 128-bit digest is sliced into one 32-bit
index seed per row.  The counters live in one flat list, row after row,
and each key's counter slots (``row * width + index``) are memoized —
the key population is the object universe, a few thousand entries per
sketch.  A memo entry packs the slots into one ``bytes`` object, as
unsigned 16-bit integers while the sketch has at most 2**16 counters
(32-bit beyond).  Four 16-bit slots take the same allocation as the
128-bit digest they derive from; a tuple of int objects would take four
times that, which with one sketch per client is megabytes of peak
memory.
"""

from __future__ import annotations

import hashlib
import struct
import typing as t

#: Default number of counters per row (rounded up to a power of two).
DEFAULT_WIDTH = 4096
#: Default number of hash rows.
DEFAULT_DEPTH = 4
#: Saturation value of each counter (4-bit counters, as in TinyLFU).
DEFAULT_MAX_COUNT = 15


class CountMinSketch:
    """Conservative-increment count-min sketch with periodic halving."""

    __slots__ = (
        "_width",
        "_depth",
        "_mask",
        "_counters",
        "_max_count",
        "_reset_interval",
        "_ops",
        "_slot_format",
        "_slots",
    )

    def __init__(
        self,
        width: int = DEFAULT_WIDTH,
        depth: int = DEFAULT_DEPTH,
        reset_interval: "int | None" = None,
        max_count: int = DEFAULT_MAX_COUNT,
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width!r}")
        if not 1 <= depth <= 4:
            raise ValueError(f"depth must lie in [1, 4], got {depth!r}")
        if max_count < 1:
            raise ValueError(f"max count must be >= 1, got {max_count!r}")
        self._width = _next_power_of_two(int(width))
        self._mask = self._width - 1
        self._depth = int(depth)
        #: Row ``r``'s counter ``i`` is ``_counters[r * width + i]``.
        self._counters = [0] * (self._depth * self._width)
        self._max_count = int(max_count)
        if reset_interval is None:
            reset_interval = 8 * self._width
        if reset_interval < 1:
            raise ValueError(
                f"reset interval must be >= 1, got {reset_interval!r}"
            )
        self._reset_interval = int(reset_interval)
        self._ops = 0
        slot_type = "H" if len(self._counters) <= 1 << 16 else "I"
        self._slot_format = struct.Struct(f"<{self._depth}{slot_type}")
        self._slots: dict[t.Any, bytes] = {}

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def reset_interval(self) -> int:
        return self._reset_interval

    def _slots_of(self, key: t.Any) -> tuple[int, ...]:
        packed = self._slots.get(key)
        if packed is None:
            # repr() of a cache key — (OID, attribute) — is a pure
            # function of its fields, unlike hash(), which varies with
            # PYTHONHASHSEED across worker processes.
            encoded = repr(key).encode("utf-8")
            raw = hashlib.blake2b(encoded, digest_size=16).digest()
            digest = int.from_bytes(raw, "little")
            packed = self._slots[key] = self._slot_format.pack(*(
                row * self._width + ((digest >> (32 * row)) & self._mask)
                for row in range(self._depth)
            ))
        return self._slot_format.unpack(packed)

    def increment(self, key: t.Any) -> None:
        """Record one touch of ``key`` (conservative increment)."""
        slots = self._slots_of(key)
        counters = self._counters
        estimate = min([counters[slot] for slot in slots])
        if estimate < self._max_count:
            for slot in slots:
                if counters[slot] == estimate:
                    counters[slot] = estimate + 1
        self._ops += 1
        if self._ops >= self._reset_interval:
            self._halve()

    def estimate(self, key: t.Any) -> int:
        """Upper bound on recent touches of ``key``."""
        counters = self._counters
        return min([counters[slot] for slot in self._slots_of(key)])

    def _halve(self) -> None:
        self._counters = [value >> 1 for value in self._counters]
        self._ops >>= 1


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power
