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
everyone or everyone else for a broadcast) → ``EventQueue.push`` per
envelope, then ``EventQueue.pop_before`` → ``Network._deliver`` →
``Node.deliver`` → the protocol.  :meth:`Network.bind` keeps the
simulator's queue ``push`` and node table and reads the adversary's
``duplicate_prob`` once; :meth:`Network.send` reads the clock, the era and
its other state once per call, then serves the destinations in order, each
exactly as a lone send: the next message id from a per-network counter
(deterministic per run), one call to the model's ``fate``, the delivery
push (the pre-bound delivery method with an argument tuple) and the
duplicate coin.  The monitor counts each call once.  The network keeps no
per-envelope log: :meth:`Network.send` returns the envelopes it made and
:meth:`Network.inject` the one it installed; the monitor keeps the counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

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

    # -- the send path --------------------------------------------------------
    def send(self, message: Message, src: int, dsts: Sequence[int]) -> List[Envelope]:
        """Send ``message`` from ``src`` to each of ``dsts`` and schedule the fates.

        Destinations are served in order, each exactly as a lone send: the
        next message id, one ``fate``, the delivery push, then the duplicate
        coin (a copy takes the id after its original).  Returns one envelope
        per destination, in order; duplicate copies are not returned.
        """
        simulator = self._simulator
        if simulator is None:
            raise NetworkError("Network.bind(simulator) must be called before sending")
        now = simulator._time
        model = self.model
        era = _POST if now >= model.ts else _PRE
        fate = model.fate
        rng = self.rng
        push = self._push
        deliver = self._deliver_action
        duplicate_prob = self._duplicate_prob
        monitor = self.monitor
        msg_id = self._next_msg_id
        envelopes = []
        dropped = 0
        for dst in dsts:
            envelope = Envelope(message, src, dst, now, era, msg_id)
            msg_id += 1
            envelopes.append(envelope)
            # ``fate`` never returns a time before ``now``: push without re-checking.
            deliver_time = fate(envelope, now, rng)
            if deliver_time is None:
                envelope.dropped = True
                dropped += 1
                continue
            envelope.deliver_time = deliver_time
            push(deliver_time, deliver, (envelope,))
            if duplicate_prob > 0 and rng.coin(duplicate_prob):
                duplicate = Envelope(message, src, dst, now, era, msg_id)
                msg_id += 1
                monitor.on_duplicate(duplicate)
                deliver_time = fate(duplicate, now, rng)
                if deliver_time is None:
                    duplicate.dropped = True
                    dropped += 1
                else:
                    duplicate.deliver_time = deliver_time
                    push(deliver_time, deliver, (duplicate,))
        self._next_msg_id = msg_id
        if envelopes:
            monitor.on_send(message.kind, era, now, len(envelopes), dropped)
        return envelopes

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
