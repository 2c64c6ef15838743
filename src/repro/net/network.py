"""The network: turns sends into scheduled deliveries.

The :class:`Network` is intentionally thin.  It asks the synchrony model for
each message's fate, pushes each delivery onto its simulator's event queue
as a call to the destination node, and reports each send to the
:class:`repro.net.monitor.NetworkMonitor`.  Scenario builders can
additionally *inject* in-flight messages — the mechanism used to install
reachable pre-stabilization states (obsolete high-ballot messages and the
like) without replaying the whole pre-``TS`` history.

The message path is the hottest code in a simulation, so a send or a
broadcast makes one call per layer: ``ProcessContext`` → ``Node._send`` →
:meth:`Network.send` over a tuple of destinations (``(dst,)`` for a send,
everyone or everyone else for a broadcast) → one
:meth:`~repro.net.synchrony.EventualSynchrony.fates` call for all of its
destinations → ``EventQueue.push`` per delivery.  A delivery is one queue
entry ``(when, seq, node.deliver, (message, src, msg_id))``: the run loop
pops it and calls :meth:`~repro.sim.lifecycle.Node.deliver`, which counts
it and hands the message to the protocol.  :meth:`Network.bind` takes each
node's bound ``deliver`` once, keyed by pid (nodes outlive crashes), so a
send to a pid with no node raises :class:`~repro.errors.NetworkError`.

Every message of a send, lost or not and duplicate copies included, takes
the next id from a per-network counter (deterministic per run), in the
order the model answers; a lost message costs no object and no queue
call, and no delivery builds an :class:`~repro.net.message.Envelope`.  The
monitor counts each send call once.  The network keeps no per-message log:
:meth:`Network.inject` returns the one envelope it installs, and the
monitor and the nodes keep the counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

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
        # pid -> that node's bound ``deliver``: the action of every delivery.
        self._deliver_to: Dict[int, Callable[..., bool]] = {}

    # -- wiring --------------------------------------------------------------
    def bind(self, simulator: "Simulator") -> None:
        """Attach the simulator and its nodes; must be called before the first send.

        Each node's ``deliver`` is read here, once: a patch of
        ``Node.deliver`` installed before the simulator is built applies to
        every delivery of its run.
        """
        self._simulator = simulator
        self._push = simulator._events.push
        self._deliver_to = {pid: node.deliver for pid, node in simulator.nodes.items()}

    # -- the send path --------------------------------------------------------
    def send(self, message: Message, src: int, dsts: Sequence[int]) -> None:
        """Send ``message`` from ``src`` to each of ``dsts`` and schedule the deliveries.

        One ``fates`` call answers for every destination, in order, with
        any duplicate copy right after its original; each message takes the
        next id, and each one with a delivery time is pushed in that order
        as a call to its destination's ``deliver``.

        Raises:
            NetworkError: before :meth:`bind`, or when a destination names
                no node.
        """
        simulator = self._simulator
        if simulator is None:
            raise NetworkError("Network.bind(simulator) must be called before sending")
        now = simulator._time
        model = self.model
        era = _POST if now >= model.ts else _PRE
        targets, times = model.fates(src, dsts, now, self.rng)
        push = self._push
        deliver_to = self._deliver_to
        first_id = self._next_msg_id
        delivered = 0
        slot = 0
        for when in times:
            if when is not None:
                try:
                    deliver = deliver_to[targets[slot]]
                except KeyError:
                    raise _unknown_destination(targets[slot]) from None
                if when < now:
                    envelope = Envelope(message, src, targets[slot], now, era, first_id + slot, when)
                    validate_delivery_time(envelope, when, now)  # raises, naming the envelope
                push(when, deliver, (message, src, first_id + slot))
                delivered += 1
            elif targets[slot] not in deliver_to:
                raise _unknown_destination(targets[slot])
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
        belonging to the pre-stabilization era; its delivery is the same
        queue entry a send would push.

        Raises:
            NetworkError: before :meth:`bind`, when ``dst`` names no node, or
                when the delivery would come before the send.
        """
        if deliver_time < send_time:
            raise NetworkError("injected message would be delivered before it was sent")
        if self._simulator is None:
            raise NetworkError("Network.bind(simulator) must be called before injecting")
        deliver = self._deliver_to.get(dst)
        if deliver is None:
            raise _unknown_destination(dst)
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        envelope = Envelope(message, src, dst, send_time, _PRE, msg_id, deliver_time)
        self.monitor.on_inject(envelope)
        # Through ``schedule_at``: a scripted delivery time may lie in the past.
        self._simulator.schedule_at(deliver_time, deliver, args=(message, src, msg_id))
        return envelope


def _unknown_destination(dst: int) -> NetworkError:
    return NetworkError(f"no process {dst!r} to deliver to")
