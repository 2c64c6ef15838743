"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence)``.  The sequence number guarantees
a deterministic total order for events scheduled at the same instant: ties
are broken by insertion order, which is itself deterministic because the
whole simulation is single-threaded and seeded.

The queue is the hottest data structure in the simulator, so it stores each
entry as a plain ``(time, seq, action, args)`` tuple rather than an object:
tuples compare element-wise, which gives heapq the ordering for free
(``seq`` is unique, so the comparison never reaches ``action``), and pushing
one costs a single small allocation.  The run loop fires an entry as
``entry[2](*entry[3])``.

:meth:`EventQueue.push` returns the entry's sequence number, and that number
is the only cancellation token.  Cancelling is lazy: :meth:`EventQueue.cancel`
marks the number in a side set, and :meth:`EventQueue.pop_before` drops a
marked entry when it reaches the top of the heap, which keeps ``cancel``
O(1) and avoids re-heapifying.  The one canceller is the node's timer table,
which only ever cancels entries that have not fired yet.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """Priority queue of ``(time, seq, action, args)`` entries with lazy cancellation."""

    __slots__ = ("_heap", "_seq", "_cancelled")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        # Sequence numbers of cancelled entries still sitting in the heap.
        self._cancelled: set = set()

    def push(self, time: float, action: Callable[..., None], args: Tuple = ()) -> int:
        """Schedule ``action(*args)`` at ``time`` and return the entry's sequence number."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, args))
        return seq

    def cancel(self, seq: int) -> None:
        """Cancel the pending entry ``seq`` (one that has not been popped yet)."""
        self._cancelled.add(seq)

    def pop_before(self, horizon: float) -> Optional[tuple]:
        """Remove and return the next live entry firing at or before ``horizon``.

        Returns the raw ``(time, seq, action, args)`` tuple, or ``None`` if
        the queue is empty or the next live entry lies beyond the horizon.
        This is the run loop's single peek-and-pop operation.
        """
        heap = self._heap
        cancelled = self._cancelled
        while True:
            if not heap:
                return None
            entry = heap[0]
            if cancelled and entry[1] in cancelled:
                heapq.heappop(heap)
                cancelled.discard(entry[1])
                continue
            break
        if entry[0] > horizon:
            return None
        heapq.heappop(heap)
        return entry
