"""The network: turns sends into scheduled deliveries.

The :class:`Network` is intentionally thin.  It asks the synchrony model for
each message's fate, schedules the delivery event on its host (the
simulator), and reports everything to the :class:`repro.net.monitor.NetworkMonitor`.
Scenario builders can additionally *inject* in-flight messages — the
mechanism used to install reachable pre-stabilization states (obsolete
high-ballot messages and the like) without replaying the whole pre-``TS``
history.

The send path is the hottest code outside the event queue, so
:meth:`Network.send` keeps its calls few: the era is computed inline from
the model's ``TS``, the message id from a plain per-network integer counter
(deterministic per run, no global state), and the delivery is scheduled as
a pre-bound method plus an argument tuple instead of a fresh closure.  The
network keeps no per-envelope log: :meth:`Network.send` and
:meth:`Network.inject` return the envelope, the simulator's trace records
every send and delivery, and the monitor keeps the aggregate counts.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Tuple

from repro.errors import NetworkError
from repro.net.message import Envelope, Era, Message
from repro.net.monitor import NetworkMonitor
from repro.net.synchrony import EventualSynchrony
from repro.sim.events import EventHandle
from repro.sim.rng import SeededRng

__all__ = ["Network", "TransportHost"]

# Enum member lookups cost a descriptor call; the send path uses these.
_PRE, _POST = Era.PRE, Era.POST


class TransportHost(Protocol):
    """What the network needs from its host (implemented by the simulator)."""

    def now(self) -> float:
        """Current real time."""

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        *,
        label: str = "",
        args: Tuple = (),
        cancellable: bool = True,
    ) -> Optional[EventHandle]:
        """Schedule ``action(*args)`` at an absolute real time."""

    def deliver_envelope(self, envelope: Envelope) -> bool:
        """Hand the envelope to its destination; False if the destination is crashed."""


class Network:
    """Message transport with partial-synchrony semantics.

    Args:
        model: The synchrony model deciding delivery fates.
        rng: Randomness stream for delays and duplication coins.
        monitor: Message accounting sink (a fresh one is created if omitted).
    """

    def __init__(
        self,
        model: EventualSynchrony,
        rng: SeededRng,
        monitor: Optional[NetworkMonitor] = None,
    ) -> None:
        self.model = model
        self.rng = rng
        self.monitor = monitor if monitor is not None else NetworkMonitor()
        self._host: Optional[TransportHost] = None
        self._next_msg_id = 0
        # Bound once: scheduled as the delivery action for every envelope,
        # so the send path never builds a closure.
        self._deliver_action = self._deliver

    # -- wiring --------------------------------------------------------------
    def bind(self, host: TransportHost) -> None:
        """Attach the transport host; must be called before the first send."""
        self._host = host

    def _next_id(self) -> int:
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        return msg_id

    # -- the send path --------------------------------------------------------
    def send(self, message: Message, src: int, dst: int) -> Envelope:
        """Send ``message`` from ``src`` to ``dst`` and schedule its fate."""
        host = self._host
        if host is None:
            raise NetworkError("Network.bind(host) must be called before sending")
        now = host.now()
        model = self.model
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        envelope = Envelope(message, src, dst, now, _POST if now >= model.ts else _PRE, msg_id)
        monitor = self.monitor
        monitor.on_send(envelope)

        rng = self.rng
        deliver_time = model.fate(envelope, now, rng)
        if deliver_time is None:
            envelope.dropped = True
            monitor.on_drop(envelope)
            return envelope

        self._schedule_delivery(envelope, deliver_time)

        duplicate_prob = model.adversary.duplicate_probability(envelope, now)
        if duplicate_prob > 0 and rng.coin(duplicate_prob):
            self._schedule_duplicate(envelope, now)
        return envelope

    def inject(
        self,
        message: Message,
        src: int,
        dst: int,
        deliver_time: float,
        send_time: float = 0.0,
    ) -> Envelope:
        """Install an in-flight message with a fixed delivery time.

        Used by scenario builders to represent messages sent before the
        simulated portion of the execution begins (the pre-``TS`` history the
        paper allows to be arbitrary).  The injected envelope is marked as
        belonging to the pre-stabilization era.
        """
        if deliver_time < send_time:
            raise NetworkError("injected message would be delivered before it was sent")
        if self._host is None:
            raise NetworkError("Network.bind(host) must be called before injecting")
        envelope = Envelope(
            message=message,
            src=src,
            dst=dst,
            send_time=send_time,
            era=Era.PRE,
            msg_id=self._next_id(),
        )
        self.monitor.on_inject(envelope)
        self._schedule_delivery(envelope, deliver_time)
        return envelope

    # -- internals -------------------------------------------------------------
    def _schedule_delivery(self, envelope: Envelope, deliver_time: float) -> None:
        # Deliveries are never cancelled, so the handle allocation is skipped
        # and the action is the pre-bound method with the envelope as its
        # argument — no per-delivery closure or label formatting.
        envelope.deliver_time = deliver_time
        self._host.schedule_at(
            deliver_time,
            self._deliver_action,
            args=(envelope,),
            label="net:deliver",
            cancellable=False,
        )

    def _schedule_duplicate(self, envelope: Envelope, now: float) -> None:
        duplicate = Envelope(
            message=envelope.message,
            src=envelope.src,
            dst=envelope.dst,
            send_time=envelope.send_time,
            era=envelope.era,
            msg_id=self._next_id(),
            duplicated_from=envelope.msg_id,
        )
        self.monitor.on_duplicate(duplicate)
        deliver_time = self.model.fate(duplicate, now, self.rng)
        if deliver_time is None:
            duplicate.dropped = True
            self.monitor.on_drop(duplicate)
            return
        self._schedule_delivery(duplicate, deliver_time)

    def _deliver(self, envelope: Envelope) -> None:
        accepted = self._host.deliver_envelope(envelope)
        if accepted:
            self.monitor.on_deliver(envelope)
        else:
            self.monitor.on_lost_to_crashed(envelope)
