"""Tests for the PR2 hot-path fast paths.

Covers the behavioural surfaces the allocation-free refactor touched:

* ``cancellable=False`` scheduling through ``Simulator.schedule_at``,
* the monitor's counters, which must agree with the trace's ``send`` and
  ``deliver`` rows (the network keeps no per-envelope log),
* per-network ``msg_id`` streams (deterministic, no global state),

plus the seeded-equivalence oracle: three protocols x three workloads whose
decision/trace digests were captured on the pre-refactor tree (PR1, commit
dcb8a75).  Any change to event ordering, RNG consumption, envelope ids, or
trace payloads shows up here as a digest mismatch.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.messages import Phase1a
from repro.harness.runner import run_scenario
from repro.net.message import Envelope, Era
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.params import TimingParams
from repro.sim.rng import SeededRng
from repro.workloads.registry import WORKLOADS
from repro.workloads.stable import stable_scenario

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
            for e in sim.trace
        ],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestSeededEquivalence:
    @pytest.mark.parametrize("key", sorted(ORACLE_DIGESTS))
    def test_run_matches_pre_refactor_oracle(self, key):
        protocol, workload = key.split("/")
        assert run_digest(protocol, workload) == ORACLE_DIGESTS[key]


class TestCancellableFastPath:
    def test_schedule_without_handle_fires(self):
        scenario = stable_scenario(3, params=PARAMS, seed=1)
        result = run_scenario(scenario, "modified-paxos")
        sim = result.simulator
        calls = []
        handle = sim.schedule_at(sim.now() + 1.0, calls.append, args=("fired",),
                                 cancellable=False)
        assert handle is None
        sim.run(until=sim.now() + 2.0)
        assert calls == ["fired"]


class TestMonitorMatchesTrace:
    """The monitor's counters agree with the trace's per-message rows."""

    @pytest.mark.parametrize("workload", ["stable", "partitioned-chaos", "lossy-chaos"])
    def test_counters_equal_the_trace_rows(self, workload):
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
        assert dict(stats.delivered_by_kind) == Counter(
            event.fields["kind"] for event in delivers
        )
        ts = sim.config.ts
        assert stats.sent_pre_ts == sum(1 for event in sends if event.time < ts)
        assert stats.sent_post_ts == sum(1 for event in sends if event.time >= ts)
        # Dropped duplicate copies have no send row of their own.
        dropped_sends = sum(1 for event in sends if event.fields["dropped"])
        assert dropped_sends <= stats.dropped <= dropped_sends + stats.duplicated


class TestPerNetworkMessageIds:
    def _network(self):
        network = Network(
            model=EventualSynchrony(ts=0.0, delta=1.0), rng=SeededRng(1, label="net")
        )

        class _Host:
            time = 0.0

            def now(self):
                return self.time

            def schedule_at(self, time, action, *, label="", args=(), cancellable=True):
                return None

            def deliver_envelope(self, envelope):
                return True

        network.bind(_Host())
        return network

    def test_fresh_networks_start_at_zero(self):
        for _ in range(2):  # back-to-back networks, no reset helper needed
            network = self._network()
            ids = [network.send(Phase1a(mbal=1), src=0, dst=1).msg_id for _ in range(3)]
            assert ids == [0, 1, 2]

    def test_concurrent_networks_have_independent_streams(self):
        a, b = self._network(), self._network()
        assert a.send(Phase1a(mbal=1), 0, 1).msg_id == 0
        assert a.send(Phase1a(mbal=1), 0, 1).msg_id == 1
        assert b.send(Phase1a(mbal=1), 0, 1).msg_id == 0

    def test_inject_shares_the_network_stream(self):
        network = self._network()
        sent = network.send(Phase1a(mbal=1), 0, 1)
        injected = network.inject(Phase1a(mbal=9), src=1, dst=0, deliver_time=5.0)
        assert injected.msg_id == sent.msg_id + 1
        assert injected.era is Era.PRE

    def test_back_to_back_runs_trace_the_same_msg_ids(self):
        def send_ids():
            scenario = stable_scenario(3, params=PARAMS, seed=3)
            trace = run_scenario(scenario, "modified-paxos").simulator.trace
            return [event.fields["msg_id"] for event in trace.filter(event="send")]

        first = send_ids()
        assert first[:3] == [0, 1, 2]
        assert first == sorted(first) and first == send_ids()

    def test_direct_envelopes_still_get_unique_fallback_ids(self):
        first = Envelope(message=Phase1a(mbal=1), src=0, dst=1, send_time=0.0, era=Era.POST)
        second = Envelope(message=Phase1a(mbal=1), src=0, dst=1, send_time=0.0, era=Era.POST)
        assert first.msg_id != second.msg_id
