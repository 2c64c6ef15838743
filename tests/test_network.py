"""Unit tests for the network transport (`repro.net.network`) on a real simulator."""

from dataclasses import dataclass
from typing import Any, List

import pytest

from repro.core.messages import Phase1a
from repro.errors import NetworkError
from repro.net.message import Era
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.sim.lifecycle import Node
from repro.sim.rng import SeededRng
from tests.helpers import build_adversary, capture_sent_envelopes, silent_simulator


@dataclass(frozen=True)
class Delivery:
    """One message a node accepted, as its queue entry carried it."""

    message: Any
    src: int
    dst: int
    msg_id: int


class SimHost:
    """A started five-process simulator seen through the network's eyes.

    ``scheduled`` lists the queued deliveries as ``(time, dst, args)``,
    ``delivered`` collects a :class:`Delivery` per message a node accepts,
    setting ``time`` moves the clock without firing anything, clearing
    ``accept_deliveries`` crashes every node, and ``fire_all`` runs the
    queue dry.
    """

    def __init__(self, network: Network) -> None:
        self.delivered: List[Delivery] = []
        # The network reads each node's ``deliver`` when the simulator binds
        # it, so the recording method only has to be in place while building.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Node, "deliver", self._recording(Node.deliver))
            self.simulator = silent_simulator(network)

    def _recording(self, deliver):
        def recording_deliver(node, message, src, msg_id):
            accepted = deliver(node, message, src, msg_id)
            if accepted:
                self.delivered.append(Delivery(message, src, node.pid, msg_id))
            return accepted

        return recording_deliver

    @property
    def time(self) -> float:
        return self.simulator.now()

    @time.setter
    def time(self, value: float) -> None:
        self.simulator._time = value

    @property
    def accept_deliveries(self) -> bool:
        return bool(self.simulator.alive_pids())

    @accept_deliveries.setter
    def accept_deliveries(self, accept: bool) -> None:
        assert not accept, "a crashed node is not restarted here"
        for pid in self.simulator.alive_pids():
            self.simulator.crash(pid)

    @property
    def scheduled(self):
        # Nothing here cancels an event, so every heap entry is live; each is
        # a delivery, whose action is its destination node's bound ``deliver``.
        return [
            (time, action.__self__.pid, args)
            for time, _, action, args in sorted(self.simulator._events._heap)
        ]

    def fire_all(self):
        self.simulator.run()


def queued_fields(time, dst, args):
    """What a queued delivery and a captured send record have in common."""
    message, src, msg_id = args
    return (message, src, dst, msg_id, time)


def sent_fields(envelope):
    return (envelope.message, envelope.src, envelope.dst, envelope.msg_id, envelope.deliver_time)


def benign_model(ts=0.0, delta=1.0):
    return EventualSynchrony(ts=ts, delta=delta, adversary=build_adversary("benign", delta=delta))


def make_network(ts=0.0, delta=1.0, adversary=None, seed=0):
    if adversary is None:
        adversary = build_adversary("benign", delta=delta)
    model = EventualSynchrony(ts=ts, delta=delta, adversary=adversary)
    network = Network(model=model, rng=SeededRng(seed, label="net"))
    host = SimHost(network)
    return network, host


class TestSendPath:
    def test_send_schedules_delivery_within_delta(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        network, host = make_network(delta=2.0)
        network.send(Phase1a(mbal=1), src=0, dsts=(1,))
        (envelope,) = sent
        assert not envelope.dropped
        assert envelope.deliver_time is not None
        assert host.scheduled[0][0] == envelope.deliver_time
        assert 0.0 < envelope.deliver_time <= 2.0

    def test_delivery_invokes_host_and_monitor(self):
        network, host = make_network()
        network.send(Phase1a(mbal=1), src=0, dsts=(1,))
        host.fire_all()
        assert len(host.delivered) == 1
        assert network.monitor.stats.delivered == 1

    def test_delivery_to_crashed_counts_separately(self):
        network, host = make_network()
        host.accept_deliveries = False
        network.send(Phase1a(mbal=1), src=0, dsts=(1,))
        host.fire_all()
        assert network.monitor.stats.delivered == 0
        assert network.monitor.stats.to_crashed == 1

    def test_pre_ts_drop_records_drop(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        network, host = make_network(ts=100.0, adversary=build_adversary("drop-all"))
        network.send(Phase1a(mbal=1), src=0, dsts=(1,))
        (envelope,) = sent
        assert envelope.dropped
        assert network.monitor.stats.dropped == 1
        assert host.scheduled == []

    def test_send_before_bind_raises(self):
        network = Network(model=benign_model(), rng=SeededRng(0))
        with pytest.raises(NetworkError):
            network.send(Phase1a(mbal=1), src=0, dsts=(1,))

    def test_sends_get_consecutive_ids_and_eras(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        network, host = make_network(ts=5.0)
        network.send(Phase1a(mbal=1), src=0, dsts=(1,))
        host.time = 5.0
        network.send(Phase1a(mbal=2), src=1, dsts=(0,))
        first, second = sent
        assert [first.msg_id, second.msg_id] == [0, 1]
        assert [first.send_time, second.send_time] == [0.0, 5.0]
        assert [first.era, second.era] == [Era.PRE, Era.POST]
        assert [queued_fields(*entry) for entry in host.scheduled] == [
            sent_fields(first), sent_fields(second)
        ]
        assert network.monitor.stats.sent_pre_ts == network.monitor.stats.sent_post_ts == 1


class TestDuplication:
    def test_duplicates_delivered_when_adversary_requests(self):
        duplicating = build_adversary("benign")
        duplicating.duplicate_prob = 1.0

        network, host = make_network(ts=100.0, adversary=duplicating)
        network.send(Phase1a(mbal=1), src=0, dsts=(1,))
        host.fire_all()
        assert network.monitor.stats.duplicated == 1
        assert len(host.delivered) == 2
        # The simulator delivers in time order; the copy may arrive first.
        original, duplicate = sorted(host.delivered, key=lambda delivery: delivery.msg_id)
        assert (duplicate.message, duplicate.src, duplicate.dst) == (
            original.message, original.src, original.dst
        )
        assert duplicate.msg_id == original.msg_id + 1


class TestInjection:
    def test_inject_schedules_at_exact_time(self):
        network, host = make_network(ts=50.0)
        envelope = network.inject(Phase1a(mbal=999), src=4, dst=2, deliver_time=60.0, send_time=1.0)
        assert envelope.era is Era.PRE
        assert envelope.deliver_time == 60.0
        assert host.scheduled[0][0] == 60.0
        host.fire_all()
        assert host.delivered[0].message.mbal == 999

    def test_inject_before_bind_raises(self):
        network = Network(model=benign_model(), rng=SeededRng(0))
        with pytest.raises(NetworkError):
            network.inject(Phase1a(mbal=1), src=0, dst=1, deliver_time=1.0)

    def test_injected_envelope_after_ts_is_pre_era_and_counted(self):
        network, _ = make_network(ts=5.0)
        envelope = network.inject(Phase1a(mbal=3), src=0, dst=1, deliver_time=8.0, send_time=6.0)
        assert envelope.era is Era.PRE
        stats = network.monitor.stats
        assert (stats.sent, stats.sent_pre_ts, stats.sent_post_ts) == (1, 1, 0)
        assert network.monitor.post_ts_send_rate(5.0, 7.0) == 1 / 2.0

    def test_inject_rejects_delivery_before_send(self):
        network, _ = make_network()
        with pytest.raises(NetworkError):
            network.inject(Phase1a(mbal=1), src=0, dst=1, deliver_time=0.5, send_time=1.0)


class TestUnknownDestinations:
    """A destination with no node is an error, not a message lost to a crash."""

    @pytest.mark.parametrize("dst", [5, -1])
    def test_send_to_a_pid_with_no_node_raises_naming_it(self, dst):
        network, host = make_network()
        with pytest.raises(NetworkError, match=f"no process {dst} "):
            network.send(Phase1a(mbal=1), src=0, dsts=(dst,))
        assert host.scheduled == []
        assert network.monitor.stats.to_crashed == 0

    @pytest.mark.parametrize("dst", [5, -1])
    def test_a_broadcast_naming_one_unknown_pid_raises(self, dst):
        network, _ = make_network()
        with pytest.raises(NetworkError, match=f"no process {dst} "):
            network.send(Phase1a(mbal=1), src=0, dsts=(0, 1, dst, 2))

    @pytest.mark.parametrize("dst", [5, -1])
    def test_a_lost_message_to_a_pid_with_no_node_raises_too(self, dst):
        network, _ = make_network(ts=100.0, adversary=build_adversary("drop-all"))
        with pytest.raises(NetworkError, match=f"no process {dst} "):
            network.send(Phase1a(mbal=1), src=0, dsts=(dst,))

    @pytest.mark.parametrize("dst", [5, -1])
    def test_inject_to_a_pid_with_no_node_raises_naming_it(self, dst):
        network, host = make_network()
        with pytest.raises(NetworkError, match=f"no process {dst} "):
            network.inject(Phase1a(mbal=1), src=0, dst=dst, deliver_time=1.0)
        assert host.scheduled == []
        assert network.monitor.stats.sent == 0
        assert network._next_msg_id == 0
