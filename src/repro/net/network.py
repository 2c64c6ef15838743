"""The network: turns sends into scheduled deliveries.

The :class:`Network` is intentionally thin.  It asks the synchrony model for
each message's fate, pushes the delivery event onto its simulator's event
queue, hands each delivered envelope to its destination node, and reports
everything to the :class:`repro.net.monitor.NetworkMonitor`.  Scenario
builders can additionally *inject* in-flight messages — the mechanism used
to install reachable pre-stabilization states (obsolete high-ballot
messages and the like) without replaying the whole pre-``TS`` history.

The send path is the hottest code outside the event queue, so a send or a
broadcast makes one call per layer: ``ProcessContext`` → ``Node._send`` →
:meth:`Network.send` over a tuple of destinations (``(dst,)`` for a send,
everyone or everyone else for a broadcast) → one
:meth:`~repro.net.synchrony.EventualSynchrony.fates` call for all of its
destinations → ``EventQueue.push`` per delivery; then
``EventQueue.pop_before`` → ``Network._deliver`` → ``Node.deliver`` → the
protocol.  Every message of a send, lost or not and duplicate copies
included, takes the next id from a per-network counter (deterministic per
run), in the order the model answers; only a message with a delivery time
is wrapped in an :class:`~repro.net.message.Envelope` and pushed, so a lost
message costs no object and no queue call.  The monitor counts each call
once.  The network keeps no per-envelope log:
:meth:`Network.inject` returns the one envelope it installs, and the
monitor keeps the counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import NetworkError
from repro.net.message import Envelope, Era, Message
from repro.net.monitor import NetworkMonitor
from repro.net.synchrony import EventualSynchrony, validate_delivery_time
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

    # -- the send path --------------------------------------------------------
    def send(self, message: Message, src: int, dsts: Sequence[int]) -> None:
        """Send ``message`` from ``src`` to each of ``dsts`` and schedule the deliveries.

        One ``fates`` call answers for every destination, in order, with
        any duplicate copy right after its original; each message takes the
        next id, and each one with a delivery time is pushed in that order.
        """
        simulator = self._simulator
        if simulator is None:
            raise NetworkError("Network.bind(simulator) must be called before sending")
        now = simulator._time
        model = self.model
        era = _POST if now >= model.ts else _PRE
        targets, times = model.fates(src, dsts, now, self.rng)
        push = self._push
        deliver = self._deliver_action
        first_id = self._next_msg_id
        delivered = 0
        slot = 0
        for when in times:
            if when is not None:
                envelope = Envelope(message, src, targets[slot], now, era, first_id + slot, when)
                if when < now:
                    validate_delivery_time(envelope, when, now)  # raises, naming the envelope
                push(when, deliver, (envelope,))
                delivered += 1
            slot += 1
        self._next_msg_id = first_id + slot
        if dsts:
            count = len(dsts)
            self.monitor.on_send(message.kind, era, now, count, slot - delivered, slot - count)

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
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        envelope = Envelope(message, src, dst, send_time, _PRE, msg_id)
        self.monitor.on_inject(envelope)
        envelope.deliver_time = deliver_time
        # Through ``schedule_at``: a scripted delivery time may lie in the past.
        self._simulator.schedule_at(deliver_time, self._deliver_action, args=(envelope,))
        return envelope

    # -- internals -------------------------------------------------------------
    def _deliver(self, envelope: Envelope) -> None:
        node = self._nodes_get(envelope.dst)
        if node is not None and node.deliver(envelope):
            self.monitor.on_deliver(envelope)
        else:
            self.monitor.on_lost_to_crashed(envelope)
