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
index seed per row.  The counters live in one flat list, row after row.

A key's counter slots (``row * width + index``) are a pure function of
its ``repr``, the width and the depth, so they are memoized once per
``(width, depth)`` shape and the memo is shared by every sketch of that
shape in the process: ten clients' sketches hash each key once, not
once each.  A memo entry is a tuple of slot ints taken from one shared
list of the shape's ``depth * width`` slot values, so the tuple holds
references to interned ints and allocates none of its own.  The memo
grows with the distinct keys a process touches per shape (the object
universe times its attributes, a few tens of thousands at most) and is
never cleared.  It relies on equal keys having equal ``repr``; cache
keys of one granularity do.
"""

from __future__ import annotations

import hashlib
import typing as t

#: Default number of counters per row (rounded up to a power of two).
DEFAULT_WIDTH = 4096
#: Default number of hash rows.
DEFAULT_DEPTH = 4
#: Saturation value of each counter (4-bit counters, as in TinyLFU).
DEFAULT_MAX_COUNT = 15

#: ``(width, depth)`` -> that shape's slot memo (key -> slot tuple) and
#: its ``depth * width`` slot ints, shared by every sketch of the shape.
_SHAPES: dict[tuple[int, int], tuple[dict[t.Any, tuple[int, ...]], list[int]]] = {}


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
        "_slots",
        "_slot_ints",
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
        shape = (self._width, self._depth)
        if shape not in _SHAPES:
            _SHAPES[shape] = ({}, list(range(len(self._counters))))
        self._slots, self._slot_ints = _SHAPES[shape]

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

    def _memoize(self, key: t.Any) -> tuple[int, ...]:
        # repr() of a cache key — (OID, attribute) — is a pure function
        # of its fields, unlike hash(), which varies with PYTHONHASHSEED
        # across worker processes.
        encoded = repr(key).encode("utf-8")
        raw = hashlib.blake2b(encoded, digest_size=16).digest()
        digest = int.from_bytes(raw, "little")
        slot_ints, width, mask = self._slot_ints, self._width, self._mask
        slots = self._slots[key] = tuple([
            slot_ints[row * width + ((digest >> (32 * row)) & mask)]
            for row in range(self._depth)
        ])
        return slots

    def increment(self, key: t.Any) -> None:
        """Record one touch of ``key`` (conservative increment)."""
        slots = self._slots.get(key)
        if slots is None:
            slots = self._memoize(key)
        counters = self._counters
        estimate = min(map(counters.__getitem__, slots))
        if estimate < self._max_count:
            for slot in slots:
                if counters[slot] == estimate:
                    counters[slot] = estimate + 1
        self._ops += 1
        if self._ops >= self._reset_interval:
            self._halve()

    def estimate(self, key: t.Any) -> int:
        """Upper bound on recent touches of ``key``."""
        slots = self._slots.get(key)
        if slots is None:
            slots = self._memoize(key)
        return min(map(self._counters.__getitem__, slots))

    def _halve(self) -> None:
        self._counters = [value >> 1 for value in self._counters]
        self._ops >>= 1


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power
