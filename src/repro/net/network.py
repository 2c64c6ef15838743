"""The network: turns sends into scheduled deliveries.

The :class:`Network` is intentionally thin.  It asks the synchrony model for
each message's fate, pushes the delivery event onto its simulator's event
queue, hands each delivered envelope to its destination node, and reports
everything to the :class:`repro.net.monitor.NetworkMonitor`.  Scenario
builders can additionally *inject* in-flight messages — the mechanism used
to install reachable pre-stabilization states (obsolete high-ballot
messages and the like) without replaying the whole pre-``TS`` history.

The send path is the hottest code outside the event queue, so a message
makes one call per layer: ``ProcessContext`` → ``Node._send`` →
:meth:`Network.send` → ``EventQueue.push``, then ``EventQueue.pop_before`` →
``Network._deliver`` → ``Node.deliver`` → the protocol.  :meth:`Network.bind`
keeps the simulator's queue ``push`` and node table and reads the
adversary's ``duplicate_prob`` once; :meth:`Network.send` reads the clock
once, takes the era from the model's ``TS`` and the message id from a
per-network counter (deterministic per run), calls the model's ``fate``
once, and pushes the pre-bound delivery method with an argument tuple.  The
network keeps no per-envelope log: :meth:`Network.send` and
:meth:`Network.inject` return the envelope; the monitor keeps the counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import NetworkError
from repro.net.message import Envelope, Era, Message
from repro.net.monitor import NetworkMonitor
from repro.net.synchrony import EventualSynchrony
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

__all__ = ["Network"]

# Enum member lookups cost a descriptor call; the send path uses these.
_PRE, _POST = Era.PRE, Era.POST


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
        self._simulator: Optional["Simulator"] = None
        self._next_msg_id = 0
        # Bound once: pushed as the delivery action for every envelope, so
        # the send path never builds a closure.
        self._deliver_action = self._deliver

    # -- wiring --------------------------------------------------------------
    def bind(self, simulator: "Simulator") -> None:
        """Attach the simulator; must be called before the first send."""
        self._simulator = simulator
        self._push = simulator._events.push
        self._nodes_get = simulator.nodes.get
        self._duplicate_prob = self.model.adversary.duplicate_prob

    def _next_id(self) -> int:
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        return msg_id

    # -- the send path --------------------------------------------------------
    def send(self, message: Message, src: int, dst: int) -> Envelope:
        """Send ``message`` from ``src`` to ``dst`` and schedule its fate."""
        simulator = self._simulator
        if simulator is None:
            raise NetworkError("Network.bind(simulator) must be called before sending")
        now = simulator._time
        model = self.model
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        envelope = Envelope(message, src, dst, now, _POST if now >= model.ts else _PRE, msg_id)
        monitor = self.monitor
        monitor.on_send(envelope)

        rng = self.rng
        # ``fate`` never returns a time before ``now``: push without re-checking.
        deliver_time = model.fate(envelope, now, rng)
        if deliver_time is None:
            envelope.dropped = True
            monitor.on_drop(envelope)
            return envelope
        envelope.deliver_time = deliver_time
        self._push(deliver_time, self._deliver_action, (envelope,))

        duplicate_prob = self._duplicate_prob
        if duplicate_prob > 0 and rng.coin(duplicate_prob):
            self._send_duplicate(envelope, now)
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
        if self._simulator is None:
            raise NetworkError("Network.bind(simulator) must be called before injecting")
        envelope = Envelope(
            message=message,
            src=src,
            dst=dst,
            send_time=send_time,
            era=Era.PRE,
            msg_id=self._next_id(),
        )
        self.monitor.on_inject(envelope)
        envelope.deliver_time = deliver_time
        # Through ``schedule_at``: a scripted delivery time may lie in the past.
        self._simulator.schedule_at(deliver_time, self._deliver_action, args=(envelope,))
        return envelope

    # -- internals -------------------------------------------------------------
    def _send_duplicate(self, envelope: Envelope, now: float) -> None:
        duplicate = Envelope(
            message=envelope.message,
            src=envelope.src,
            dst=envelope.dst,
            send_time=envelope.send_time,
            era=envelope.era,
            msg_id=self._next_id(),
        )
        self.monitor.on_duplicate(duplicate)
        deliver_time = self.model.fate(duplicate, now, self.rng)
        if deliver_time is None:
            duplicate.dropped = True
            self.monitor.on_drop(duplicate)
            return
        duplicate.deliver_time = deliver_time
        self._push(deliver_time, self._deliver_action, (duplicate,))

    def _deliver(self, envelope: Envelope) -> None:
        node = self._nodes_get(envelope.dst)
        if node is not None and node.deliver(envelope):
            self.monitor.on_deliver(envelope)
        else:
            self.monitor.on_lost_to_crashed(envelope)
