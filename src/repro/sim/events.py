"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence)``.  The sequence number guarantees
a deterministic total order for events scheduled at the same instant: ties
are broken by insertion order, which is itself deterministic because the
whole simulation is single-threaded and seeded.

The queue is the hottest data structure in the simulator, so it stores each
entry as a plain ``(time, seq, action, args)`` tuple rather than an object:
tuples compare element-wise, which gives heapq the ordering for free
(``seq`` is unique, so the comparison never reaches ``action``), and pushing
one costs a single small allocation.  The queue only fills: the run loop,
:meth:`repro.sim.simulator.Simulator.run`, pops the heap itself with
``heapq.heappop`` and fires an entry as ``action(*args)``, so no queue
method runs per event.  A delivery is one such entry,
``(when, seq, node.deliver, (message, src, msg_id))``.

:meth:`EventQueue.push` returns the entry's sequence number, and that number
is the only cancellation token.  Cancelling is lazy: :meth:`EventQueue.cancel`
marks the number in a side set, and the run loop drops a marked entry when
it reaches the top of the heap, which keeps ``cancel`` O(1) and avoids
re-heapifying.  The one canceller is the node's timer table, which only
ever cancels entries that have not fired yet.
"""

from __future__ import annotations

import heapq
from typing import Callable, Tuple

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
