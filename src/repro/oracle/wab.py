"""Weak-ordering (weak atomic broadcast) oracle.

Section 5 of the paper implements the message-delivery oracle required by
the B-Consensus algorithm of Pedone et al. as follows: every oracle message
is broadcast to all processes and timestamped with a Lamport clock; a
process holds each received oracle message for ``2δ`` seconds and then
delivers held messages in timestamp order.  After stabilization this makes
all correct processes deliver the same messages in the same order, because
``2δ`` is enough time for every lower-timestamped message (sent after
stabilization) to arrive first.

:class:`WabEndpoint` is the per-process half of that construction.  It is a
*component used by a protocol process*, not a process itself: the protocol
forwards incoming :class:`WabMessage` instances and oracle timer firings to
the endpoint, and the endpoint calls the protocol back when a message is
w-delivered.  The endpoint persists its logical clock in stable storage so a
restarted process never reuses old timestamps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, List, Set, Tuple

from repro.net.message import Message
from repro.oracle.lamport import LamportClock, LogicalTimestamp
from repro.sim.process import ProcessContext

__all__ = ["WabEndpoint", "WabMessage"]

_CLOCK_KEY = "wab:clock"
_TIMER_PREFIX = "wab-release-"


@dataclass(frozen=True, slots=True)
class WabMessage(Message):
    """An oracle broadcast carrying an opaque protocol payload."""

    kind = "wab"

    timestamp: LogicalTimestamp
    origin: int
    payload: Any


DeliverCallback = Callable[[Any, int, LogicalTimestamp], None]


class WabEndpoint:
    """Per-process endpoint of the weak ordering oracle.

    Each received message is held for ``2δ`` of real time, as in the paper:
    the local timer is inflated by ``(1 + ρ)`` so the real hold is never
    shorter than that.

    Args:
        ctx: The owning process's context (used for broadcast, timers,
            stable storage, and the local clock).
        deliver: Callback invoked as ``deliver(payload, origin, timestamp)``
            when a message is w-delivered, in timestamp order.
    """

    def __init__(self, ctx: ProcessContext, deliver: DeliverCallback) -> None:
        self.ctx = ctx
        self.deliver = deliver
        params = ctx.params
        self.hold_local = 2.0 * params.delta * (1.0 + params.rho)
        stored_counter = ctx.storage.get(_CLOCK_KEY, 0)
        self.clock = LamportClock.restore(ctx.pid, stored_counter)
        # Hold-back queue ordered by timestamp, keyed by its plain
        # ``(counter, pid)`` ints (Lamport order, compared in C); each entry
        # also records the local time at which its 2δ hold expires and
        # carries the timestamp object for the deliver callback.
        self._held: List[Tuple[int, int, float, int, Any, LogicalTimestamp]] = []
        self._seen: Set[Tuple[int, int, int]] = set()
        self._timer_seq = 0
        self.delivered_count = 0
        self.broadcast_count = 0

    # -- sending ------------------------------------------------------------------
    def broadcast(self, payload: Any) -> WabMessage:
        """w-broadcast ``payload`` to every process (including the sender)."""
        timestamp = self.clock.tick()
        self._persist_clock()
        message = WabMessage(timestamp=timestamp, origin=self.ctx.pid, payload=payload)
        self.ctx.broadcast(message, include_self=True)
        self.broadcast_count += 1
        return message

    # -- receiving ------------------------------------------------------------------
    def on_receive(self, message: WabMessage) -> None:
        """Handle an incoming oracle message (called by the owning protocol)."""
        timestamp = message.timestamp
        key = (timestamp.counter, timestamp.pid, message.origin)
        if key in self._seen:
            return  # duplicate copy from the network
        self._seen.add(key)
        self.clock.observe(timestamp)
        self._persist_clock()
        release_local = self.ctx.local_time() + self.hold_local
        heapq.heappush(
            self._held,
            (timestamp.counter, timestamp.pid, release_local, message.origin, message.payload,
             timestamp),
        )
        self._timer_seq += 1
        self.ctx.set_timer(f"{_TIMER_PREFIX}{self._timer_seq}", self.hold_local)

    def handles_timer(self, name: str) -> bool:
        """Whether a timer name belongs to this endpoint."""
        return name.startswith(_TIMER_PREFIX)

    def on_timer(self, name: str) -> None:
        """Release every held message whose hold has expired, in timestamp order."""
        if not self.handles_timer(name):
            return
        now_local = self.ctx.local_time()
        # Small tolerance so the message whose own timer fired is released even
        # if floating-point rounding puts its release a hair in the future.
        tolerance = 1e-9 * max(1.0, abs(now_local))
        while self._held and self._held[0][2] <= now_local + tolerance:
            _, _, _, origin, payload, timestamp = heapq.heappop(self._held)
            self.delivered_count += 1
            self.deliver(payload, origin, timestamp)

    def _persist_clock(self) -> None:
        self.ctx.storage.put(_CLOCK_KEY, self.clock.snapshot())
