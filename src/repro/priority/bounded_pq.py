"""Bounded max-priority queue with lazy deletion.

The global comparison index ``CmpIndex`` of the PIER framework is "a bounded
priority queue returning as first element the comparison with highest
weight".  This implementation supports:

* ``enqueue(item, key)`` — insert with an arbitrary comparable priority key
  (floats for I-PCS/I-PES, ``(-block_size, cbs)`` tuples for I-PBS);
* ``dequeue()`` — remove and return the highest-priority item;
* bounded capacity — when full, a new item only enters by evicting the
  current *minimum*, and only if it outranks that minimum;
* ``peek_key()`` — the key of the current top (I-PES consults
  ``E_PQ(p).top.weight`` without removing it).

Heap entries are plain tuples, so every heap comparison runs in C: the
max-heap holds ``(negated key, seq, entry)`` (descending by key, FIFO on
ties) and the min-heap ``(key, -seq, entry)`` (ascending by key, the
*newest* item first on ties, so older equally weighted comparisons are not
starved).  Keys are numbers or tuples of numbers; a tuple key is negated
part by part.  ``seq`` is unique, so a comparison never reaches ``entry``.

``entry`` is a shared ``[key, item, alive]`` list: evicted/dequeued entries
are tombstoned and skipped lazily, which keeps all operations ``O(log n)``
amortized.  The min-heap only serves eviction, so it is built the first
time the queue reaches its capacity (by heapifying the live entries) —
unbounded queues, such as I-PES's per-entity queues, never hold one.
"""

from __future__ import annotations

import heapq
from typing import Any, Generic, Iterator, TypeVar

__all__ = ["BoundedPriorityQueue"]

T = TypeVar("T")

# Positions inside an entry list.
_KEY, _ITEM, _ALIVE = 0, 1, 2


class BoundedPriorityQueue(Generic[T]):
    """Max-priority queue with optional capacity bound.

    Parameters
    ----------
    capacity:
        Maximum number of live items; ``None`` means unbounded.
    """

    # Hot allocation path: I-PES creates one queue per entity, so dropping
    # the per-instance ``__dict__`` is a real memory win (measured by
    # ``python -m benchmarks.perf``, section "slots").
    __slots__ = (
        "capacity", "_max_heap", "_min_heap", "_size", "_seq",
        "evictions", "rejections",
    )

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._max_heap: list[tuple] = []
        # ``None`` until the queue first reaches ``capacity``.
        self._min_heap: list[tuple] | None = None
        self._size = 0
        self._seq = 0
        self.evictions = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def enqueue(self, item: T, key: Any) -> bool:
        """Insert ``item`` with priority ``key``.

        Returns ``True`` if the item entered the queue.  When the queue is
        full, the item is rejected (``False``) unless it outranks the current
        minimum, which is then evicted.
        """
        capacity = self.capacity
        if capacity is not None and self._size >= capacity:
            if self._min_heap is None:
                self._build_min_heap()
            min_entry = self._peek_min_entry()
            if min_entry is None or not key > min_entry[_KEY]:
                self.rejections += 1
                return False
            min_entry[_ALIVE] = False
            self._size -= 1
            self.evictions += 1
        seq = self._seq
        self._seq = seq + 1
        entry = [key, item, True]
        # The order-reversing image of the key: a tuple negates part by part.
        negated = tuple([-part for part in key]) if key.__class__ is tuple else -key
        heapq.heappush(self._max_heap, (negated, seq, entry))
        if self._min_heap is not None:
            heapq.heappush(self._min_heap, (key, -seq, entry))
        self._size += 1
        return True

    def dequeue(self) -> T:
        """Remove and return the highest-priority item."""
        entry = self._pop_live_max()
        if entry is None:
            raise IndexError("dequeue from empty BoundedPriorityQueue")
        return entry[_ITEM]

    def dequeue_with_key(self) -> tuple[T, Any]:
        """Like :meth:`dequeue` but also return the item's priority key."""
        entry = self._pop_live_max()
        if entry is None:
            raise IndexError("dequeue from empty BoundedPriorityQueue")
        return entry[_ITEM], entry[_KEY]

    def peek(self) -> T:
        """Return (without removing) the highest-priority item."""
        entry = self._peek_max_entry()
        if entry is None:
            raise IndexError("peek on empty BoundedPriorityQueue")
        return entry[_ITEM]

    def peek_key(self) -> Any:
        """Priority key of the current top item."""
        entry = self._peek_max_entry()
        if entry is None:
            raise IndexError("peek_key on empty BoundedPriorityQueue")
        return entry[_KEY]

    def drain(self) -> Iterator[T]:
        """Yield all items in priority order, emptying the queue."""
        while self._size:
            yield self.dequeue()

    def clear(self) -> None:
        self._max_heap.clear()
        self._min_heap = None
        self._size = 0

    # ------------------------------------------------------------------
    def _peek_max_entry(self) -> list | None:
        """Top live entry of the max heap (dead entries discarded en route)."""
        heap = self._max_heap
        while heap:
            entry = heap[0][2]
            if entry[_ALIVE]:
                return entry
            heapq.heappop(heap)
        return None

    def _pop_live_max(self) -> list | None:
        """Remove the top live entry from the max heap and tombstone it."""
        heap = self._max_heap
        while heap:
            entry = heapq.heappop(heap)[2]
            if entry[_ALIVE]:
                entry[_ALIVE] = False
                self._size -= 1
                return entry
        return None

    def _build_min_heap(self) -> None:
        self._min_heap = [
            (entry[_KEY], -seq, entry)
            for _, seq, entry in self._max_heap
            if entry[_ALIVE]
        ]
        heapq.heapify(self._min_heap)

    def _peek_min_entry(self) -> list | None:
        heap = self._min_heap
        while heap:
            entry = heap[0][2]
            if entry[_ALIVE]:
                return entry
            heapq.heappop(heap)
        return None

    def __repr__(self) -> str:
        bound = self.capacity if self.capacity is not None else "∞"
        return f"BoundedPriorityQueue(size={self._size}, capacity={bound})"
