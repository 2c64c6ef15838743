"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence)``.  The sequence number guarantees
a deterministic total order for events scheduled at the same instant: ties
are broken by insertion order, which is itself deterministic because the
whole simulation is single-threaded and seeded.

The queue is the hottest data structure in the simulator, so it stores each
entry as a plain ``(time, seq, action, args, label)`` tuple rather than an
object: tuples compare element-wise, which gives heapq the ordering for free
(``seq`` is unique, so the comparison never reaches ``action``), and pushing
one costs a single small allocation.  :class:`Event` is a ``NamedTuple``
over the same five slots — ``pop`` and ``snapshot`` return entries through
it so inspection code can say ``event.label`` instead of ``event[4]`` —
while the run loop uses :meth:`EventQueue.pop_before`, which hands back the
raw tuple without any wrapping.

Cancellation is opt-in and lazy.  ``push(..., cancellable=True)`` (the
default) allocates an :class:`EventHandle` and registers it; schedulers that
never cancel — network deliveries, one-shot fault injections — pass
``cancellable=False`` and get ``None`` back, skipping the handle allocation
and the registry insert entirely.  Cancelling marks the entry's sequence
number in a side set and the queue skips marked entries when popping, which
keeps ``cancel`` O(1) and avoids re-heapifying.  Cancelling a handle whose
event already fired (or that was dropped by :meth:`EventQueue.clear`) is a
tracked no-op — it bumps :attr:`EventQueue.stale_cancels` and leaves the
live count untouched.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple, Optional, Tuple

from repro.errors import SchedulingError

__all__ = ["Event", "EventHandle", "EventQueue"]

_INF = float("inf")


class Event(NamedTuple):
    """One scheduled callback, as stored on the heap.

    Attributes:
        time: Simulated time at which the event fires.
        seq: Monotonic sequence number breaking ties at the same time.
        action: Callable invoked as ``action(*args)`` when the event fires.
        args: Positional arguments for ``action`` (empty for thunks).
        label: Human-readable tag used by traces and debugging output.
    """

    time: float
    seq: int
    action: Callable[..., None]
    args: Tuple = ()
    label: str = ""


class EventHandle:
    """Cancellation token returned by a cancellable :meth:`EventQueue.push`."""

    __slots__ = ("time", "label", "seq", "cancelled", "fired", "_queue")

    def __init__(
        self,
        time: float = 0.0,
        label: str = "",
        seq: int = -1,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.label = label
        self.seq = seq
        self.cancelled = False
        self.fired = False
        self._queue = queue

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(time={self.time}, label={self.label!r}, {state})"

    def cancel(self) -> None:
        """Cancel the event.  Cancelling twice is an error."""
        if self._queue is not None:
            self._queue.cancel(self)
        else:
            self._mark_cancelled()

    def _mark_cancelled(self) -> None:
        if self.cancelled:
            raise SchedulingError(f"event {self.label!r} cancelled twice")
        self.cancelled = True


class EventQueue:
    """Priority queue of event tuples with lazy, opt-in cancellation.

    Attributes:
        stale_cancels: Number of cancellations that targeted an event which
            had already fired or been cleared — tracked no-ops that leave the
            live count intact.
    """

    __slots__ = ("_heap", "_seq", "_live", "_cancelled", "_handles", "stale_cancels")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0
        # Sequence numbers of cancelled entries still sitting in the heap.
        self._cancelled: set = set()
        # seq -> handle, for cancellable entries that have not fired yet.
        self._handles: dict = {}
        self.stale_cancels = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        action: Callable[..., None],
        label: str = "",
        args: Tuple = (),
        cancellable: bool = True,
    ) -> Optional[EventHandle]:
        """Schedule ``action(*args)`` at ``time``.

        Returns an :class:`EventHandle` for later cancellation, or ``None``
        when ``cancellable=False`` — the fast path for events that are never
        cancelled (network deliveries, one-shot injections), which skips the
        handle allocation entirely.  Parameters are positional-or-keyword so
        the simulator's scheduling front-ends can call in positionally.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, args, label))
        self._live += 1
        if not cancellable:
            return None
        handle = EventHandle(time, label, seq, self)
        self._handles[seq] = handle
        return handle

    def pop_before(self, horizon: float) -> Optional[tuple]:
        """Remove and return the next live entry firing at or before ``horizon``.

        Returns the raw ``(time, seq, action, args, label)`` tuple (fire it
        with ``entry[2](*entry[3])``), or ``None`` if the queue is
        empty or the next live event lies beyond the horizon.  This is the
        run loop's single peek-and-pop operation.
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
        self._live -= 1
        handles = self._handles
        if handles:
            handle = handles.pop(entry[1], None)
            if handle is not None:
                handle.fired = True
        return entry

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises:
            SchedulingError: if the queue holds no live events.
        """
        entry = self.pop_before(_INF)
        if entry is None:
            raise SchedulingError("pop from an empty event queue")
        return Event._make(entry)

    def cancel(self, handle: Optional[EventHandle]) -> None:
        """Cancel a previously pushed event via its handle.

        Cancelling a handle whose event already fired (or was dropped by
        :meth:`clear`) is a tracked no-op: the live count is not touched and
        :attr:`stale_cancels` is bumped.  Cancelling the same handle twice
        raises.
        """
        if handle is None:
            raise SchedulingError(
                "cannot cancel an event scheduled with cancellable=False"
            )
        handle._mark_cancelled()
        # The queue-identity check keeps a foreign handle (another queue's, or
        # a standalone test fake) from cancelling an unrelated local event
        # that happens to share its sequence number.
        if handle._queue is not self or self._handles.pop(handle.seq, None) is None:
            # Foreign, already fired, or cleared.
            self.stale_cancels += 1
            return
        self._cancelled.add(handle.seq)
        self._live -= 1

    def clear(self) -> None:
        """Drop every queued event (used when tearing a simulation down)."""
        self._heap.clear()
        self._cancelled.clear()
        self._handles.clear()
        self._live = 0

    def snapshot(self) -> list:
        """Return the live events in firing order without consuming them.

        Intended for tests and debugging; cost is O(n log n).
        """
        cancelled = self._cancelled
        entries = [entry for entry in self._heap if entry[1] not in cancelled]
        entries.sort()
        return [Event._make(entry) for entry in entries]
