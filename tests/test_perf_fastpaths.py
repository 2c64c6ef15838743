"""Tests for the hot-path fast paths.

Covers the behavioural surfaces the allocation-free refactors touched:

* the monitor's counters, which must agree with the per-message ``send`` and
  ``deliver`` rows (the network keeps no per-envelope log),
* per-network ``msg_id`` streams (deterministic, no global state),
* direct delivery: a delivery is one queue entry calling its node, with no
  envelope built for it, and the nodes count every one,

plus the seeded-equivalence oracle: three protocols x three workloads whose
decision/trace digests were captured on the pre-refactor tree (PR1, commit
dcb8a75).  Any change to event ordering, RNG consumption, envelope ids, or
trace payloads shows up here as a digest mismatch.

The simulator's trace holds no per-message rows; these tests add them with
:func:`tests.helpers.trace_wire_rows`, which records every send, delivery
and timer firing in the trace exactly as the pre-refactor tree did, so the
digests still cover every message.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.messages import Phase1a
from repro.harness.runner import run_scenario
from repro.net import network as network_module
from repro.net.message import Era
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.params import TimingParams
from repro.sim.events import EventQueue
from repro.sim.lifecycle import Node
from repro.sim.rng import SeededRng
from repro.workloads.registry import WORKLOADS
from repro.workloads.stable import stable_scenario
from tests.helpers import (
    build_adversary,
    capture_sent_envelopes,
    silent_simulator,
    trace_wire_rows,
)

PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)

# sha256 digests captured on the pre-refactor tree (see module docstring).
ORACLE_DIGESTS = {
    "modified-paxos/stable": "9cb940af944164acba32a0b056c953f898e8ea3ad13b43708bddc4f39e77efcd",
    "modified-paxos/partitioned-chaos": "4c0c7007400b795b2ffed590b219b198c4faddc911e67d08a23348bef8de13ff",
    "modified-paxos/lossy-chaos": "c11fdf1d9d5293c9dc1ac273d40e689706d24f0f88380c29e2f81b8ef053b37d",
    "traditional-paxos/stable": "f03fa429a9583e1844de6b7005e43ba5abd19614ed713df8dc20eca977347938",
    "traditional-paxos/partitioned-chaos": "3b7ab410be46c66e8b540f2b20d4b05ae5852327ba90899e4bfa35d21da0b452",
    "traditional-paxos/lossy-chaos": "28ed1355c0dd660aa9714eda8efb46b616685e46a675faadd7be4d66b5f06e32",
    "rotating-coordinator/stable": "92425bfd35ebea8bb10422706b31d4ae0ce4f932bf6b5c0872f9eb58357b786d",
    "rotating-coordinator/partitioned-chaos": "f4d9b11aa1c88852d3c3891c907cb8290589c448e4c00da780d4a9cc598d98c5",
    "rotating-coordinator/lossy-chaos": "6ad0549fb8399773c4813dd99f52bf49ca9d86938739e32e7276573f804a9b4f",
}

WORKLOAD_KWARGS = {
    "stable": {"n": 5, "seed": 7},
    "partitioned-chaos": {"n": 5, "seed": 7, "ts": 10.0},
    "lossy-chaos": {"n": 5, "seed": 7, "ts": 10.0},
}


def run_digest(protocol: str, workload: str) -> str:
    """Digest of everything observable about one seeded run."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        trace_wire_rows(monkeypatch)
        scenario = WORKLOADS.create(
            workload, params=PARAMS, **WORKLOAD_KWARGS[workload]
        )
        result = run_scenario(scenario, protocol)
    sim = result.simulator
    payload = {
        "decisions": [
            (r.pid, repr(r.value), round(r.time, 9), r.incarnation)
            for r in sorted(sim.all_decisions, key=lambda r: (r.time, r.pid))
        ],
        "events_processed": sim.events_processed,
        "sent": sim.network.monitor.stats.sent,
        "delivered": sim.network.monitor.stats.delivered,
        "trace": [
            (round(e.time, 9), e.category, e.event, e.pid,
             sorted((k, repr(v)) for k, v in e.fields.items()))
            for e in sim.trace.events
        ],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestSeededEquivalence:
    @pytest.mark.parametrize("key", sorted(ORACLE_DIGESTS))
    def test_run_matches_pre_refactor_oracle(self, key):
        protocol, workload = key.split("/")
        assert run_digest(protocol, workload) == ORACLE_DIGESTS[key]


class TestMonitorMatchesTrace:
    """The monitor's counters agree with the per-message trace rows."""

    @pytest.mark.parametrize("workload", ["stable", "partitioned-chaos", "lossy-chaos"])
    def test_counters_equal_the_trace_rows(self, workload, monkeypatch):
        trace_wire_rows(monkeypatch)
        scenario = WORKLOADS.create(
            workload, params=PARAMS, **WORKLOAD_KWARGS[workload]
        )
        sim = run_scenario(scenario, "modified-paxos").simulator
        stats = sim.network.monitor.stats
        sends = sim.trace.filter(event="send", category="net")
        delivers = sim.trace.filter(event="deliver", category="net")
        lost = sim.trace.filter(event="deliver_to_crashed", category="net")
        assert stats.sent == len(sends) > 0
        assert stats.delivered == len(delivers) > 0
        assert stats.to_crashed == len(lost)
        assert dict(stats.by_kind) == Counter(event.fields["kind"] for event in sends)
        ts = sim.config.ts
        assert stats.sent_pre_ts == sum(1 for event in sends if event.time < ts)
        assert stats.sent_post_ts == sum(1 for event in sends if event.time >= ts)
        # Dropped duplicate copies have no send row of their own.
        dropped_sends = sum(1 for event in sends if event.fields["dropped"])
        assert dropped_sends <= stats.dropped <= dropped_sends + stats.duplicated


class TestPerNetworkMessageIds:
    def _network(self):
        network = Network(
            model=EventualSynchrony(ts=0.0, delta=1.0, adversary=build_adversary("benign")),
            rng=SeededRng(1, label="net"),
        )
        silent_simulator(network)
        return network

    @staticmethod
    def _send_id(network, sent):
        """The message id ``network`` gives one send to p1, read from the captured record."""
        network.send(Phase1a(mbal=1), src=0, dsts=(1,))
        return sent[-1].msg_id

    def test_fresh_networks_start_at_zero(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        for _ in range(2):  # back-to-back networks, no reset helper needed
            network = self._network()
            ids = [self._send_id(network, sent) for _ in range(3)]
            assert ids == [0, 1, 2]

    def test_concurrent_networks_have_independent_streams(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        a, b = self._network(), self._network()
        assert self._send_id(a, sent) == 0
        assert self._send_id(a, sent) == 1
        assert self._send_id(b, sent) == 0

    def test_inject_shares_the_network_stream(self, monkeypatch):
        captured = capture_sent_envelopes(monkeypatch)
        network = self._network()
        network.send(Phase1a(mbal=1), 0, (1,))
        (sent,) = captured
        injected = network.inject(Phase1a(mbal=9), src=1, dst=0, deliver_time=5.0)
        assert injected.msg_id == sent.msg_id + 1
        assert injected.era is Era.PRE

    def test_back_to_back_runs_trace_the_same_msg_ids(self, monkeypatch):
        trace_wire_rows(monkeypatch)

        def send_ids():
            scenario = stable_scenario(3, params=PARAMS, seed=3)
            trace = run_scenario(scenario, "modified-paxos").simulator.trace
            return [event.fields["msg_id"] for event in trace.filter(event="send")]

        first = send_ids()
        assert first[:3] == [0, 1, 2]
        assert first == sorted(first) and first == send_ids()


class TestDirectDelivery:
    """A delivery is the queue entry ``(when, seq, node.deliver, (message, src, msg_id))``."""

    @staticmethod
    def _count_envelopes(monkeypatch):
        built = []
        envelope = network_module.Envelope

        def counting_envelope(*args, **kwargs):
            built.append(args)
            return envelope(*args, **kwargs)

        monkeypatch.setattr(network_module, "Envelope", counting_envelope)
        return built

    def test_a_seeded_chaos_run_builds_no_envelope(self, monkeypatch):
        built = self._count_envelopes(monkeypatch)
        scenario = WORKLOADS.create("partitioned-chaos", n=9, seed=1)
        sim = run_scenario(scenario, "modified-paxos").simulator
        assert sim.network.monitor.stats.delivered > 0
        assert built == []

    def test_only_inject_builds_envelopes(self, monkeypatch):
        built = self._count_envelopes(monkeypatch)
        injected = []
        inject = Network.inject

        def counting_inject(self, *args, **kwargs):
            injected.append(inject(self, *args, **kwargs))
            return injected[-1]

        monkeypatch.setattr(Network, "inject", counting_inject)
        run_scenario(WORKLOADS.create("obsolete-ballots", n=5), "modified-paxos")
        assert len(built) == len(injected) > 0

    @pytest.mark.parametrize("workload", ["restarts", "kitchen-sink"])
    def test_delivered_plus_to_crashed_equals_the_delivery_entries_fired(
        self, workload, monkeypatch
    ):
        pushed = []
        push = EventQueue.push

        def recording_push(self, time, action, args=()):
            if getattr(action, "__func__", None) is Node.deliver:
                pushed.append(args)
            return push(self, time, action, args)

        # The network keeps the queue's bound ``push`` from when it binds.
        monkeypatch.setattr(EventQueue, "push", recording_push)
        sim = run_scenario(WORKLOADS.create(workload, n=5, seed=1), "modified-paxos").simulator
        pending = sum(
            1 for entry in sim._events._heap
            if getattr(entry[2], "__func__", None) is Node.deliver
        )
        stats = sim.network.monitor.stats
        assert stats.delivered > 0 and stats.to_crashed > 0
        assert stats.delivered + stats.to_crashed == len(pushed) - pending
