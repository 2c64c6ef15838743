"""Unit tests for the weak ordering oracle endpoint (`repro.oracle.wab`)."""

import hashlib
import json

import pytest

from repro.oracle.lamport import LogicalTimestamp
from repro.oracle.wab import WabEndpoint, WabMessage

from tests.helpers import ContextHarness, make_params


def make_endpoint(pid=0, n=3, rho=0.0):
    harness = ContextHarness(pid=pid, n=n, params=make_params(rho=rho))
    delivered = []

    def deliver(payload, origin, timestamp):
        delivered.append((payload, origin, timestamp))

    endpoint = WabEndpoint(harness.ctx, deliver=deliver)
    return harness, endpoint, delivered


class TestBroadcast:
    def test_broadcast_sends_to_everyone_including_self(self):
        harness, endpoint, _ = make_endpoint(pid=1, n=4)
        message = endpoint.broadcast("payload")
        assert sorted(harness.destinations_of_kind("wab")) == [0, 1, 2, 3]
        assert message.origin == 1
        assert message.payload == "payload"

    def test_timestamps_strictly_increase(self):
        _, endpoint, _ = make_endpoint()
        first = endpoint.broadcast("a")
        second = endpoint.broadcast("b")
        assert first.timestamp < second.timestamp

    def test_clock_persisted_across_restart(self):
        harness, endpoint, _ = make_endpoint()
        endpoint.broadcast("a")
        endpoint.broadcast("b")
        # New endpoint over the same storage (simulating a restart).
        rebuilt = WabEndpoint(harness.ctx, deliver=lambda *args: None)
        third = rebuilt.broadcast("c")
        assert third.timestamp.counter > 2 - 1  # never reuses old timestamps
        assert third.timestamp.counter >= 3


class TestHoldBackDelivery:
    def test_message_held_until_timer_fires(self):
        harness, endpoint, delivered = make_endpoint()
        incoming = WabMessage(timestamp=LogicalTimestamp(5, 2), origin=2, payload="x")
        endpoint.on_receive(incoming)
        assert delivered == []
        # Exactly one oracle timer was armed with the 2-delta hold.
        wab_timers = [name for name in harness.timers if endpoint.handles_timer(name)]
        assert len(wab_timers) == 1
        assert harness.timers[wab_timers[0]] == 2.0

    def test_delivery_after_hold_in_timestamp_order(self):
        harness, endpoint, delivered = make_endpoint()
        late = WabMessage(timestamp=LogicalTimestamp(9, 1), origin=1, payload="late")
        early = WabMessage(timestamp=LogicalTimestamp(3, 2), origin=2, payload="early")
        endpoint.on_receive(late)
        endpoint.on_receive(early)
        harness.advance_local_time(2.0)
        for name in [name for name in list(harness.timers) if endpoint.handles_timer(name)]:
            harness.timers.pop(name)
            endpoint.on_timer(name)
        assert [payload for payload, _, _ in delivered] == ["early", "late"]

    def test_lower_timestamp_still_held_blocks_higher(self):
        harness, endpoint, delivered = make_endpoint()
        early = WabMessage(timestamp=LogicalTimestamp(1, 0), origin=0, payload="early")
        late = WabMessage(timestamp=LogicalTimestamp(2, 1), origin=1, payload="late")
        endpoint.on_receive(late)
        harness.advance_local_time(1.0)
        endpoint.on_receive(early)  # received later, lower timestamp, still held
        harness.advance_local_time(1.0)
        # At local time 2.0 only `late`'s hold expired, but it must not be
        # delivered ahead of the still-held lower-timestamped `early`.
        endpoint.on_timer("wab-release-1")
        assert delivered == []
        harness.advance_local_time(1.0)
        endpoint.on_timer("wab-release-2")
        assert [payload for payload, _, _ in delivered] == ["early", "late"]

    def test_duplicates_are_ignored(self):
        harness, endpoint, delivered = make_endpoint()
        message = WabMessage(timestamp=LogicalTimestamp(4, 1), origin=1, payload="x")
        endpoint.on_receive(message)
        endpoint.on_receive(message)
        harness.advance_local_time(5.0)
        endpoint.on_timer("wab-release-1")
        assert len(delivered) == 1

    def test_receiving_updates_logical_clock(self):
        _, endpoint, _ = make_endpoint()
        endpoint.on_receive(WabMessage(timestamp=LogicalTimestamp(50, 2), origin=2, payload="x"))
        outgoing = endpoint.broadcast("y")
        assert outgoing.timestamp.counter > 50

    def test_hold_uses_rho_inflation(self):
        harness, endpoint, _ = make_endpoint(rho=0.05)
        endpoint.on_receive(WabMessage(timestamp=LogicalTimestamp(1, 1), origin=1, payload="x"))
        wab_timers = [name for name in harness.timers if endpoint.handles_timer(name)]
        assert harness.timers[wab_timers[0]] == 2.0 * 1.05

    def test_handles_timer_only_for_own_names(self):
        _, endpoint, _ = make_endpoint()
        assert endpoint.handles_timer("wab-release-3")
        assert not endpoint.handles_timer("session")

    def test_counts(self):
        harness, endpoint, _ = make_endpoint()
        endpoint.broadcast("a")
        endpoint.on_receive(WabMessage(timestamp=LogicalTimestamp(1, 1), origin=1, payload="x"))
        harness.advance_local_time(3.0)
        endpoint.on_timer("wab-release-1")
        assert endpoint.broadcast_count == 1
        assert endpoint.delivered_count == 1


# sha256 of every w-delivery of a seeded n=5 run, in the order the endpoints
# made them: (pid, origin, timestamp counter, timestamp pid, payload repr).
# Captured when the hold-back queue was still ordered by LogicalTimestamp
# objects; a queue keyed by plain ints must deliver in the same order.
W_DELIVERY_DIGESTS = {
    "b-consensus/partitioned-chaos": (439, "c58c5433d61d11fbce8f033ba9e43d02d290566e2f09c64b868745b474305060"),
    "b-consensus/lossy-chaos": (746, "d1d168a300c1391bfa2b80ddbd6d41873d7f4afa4da56ad7c0342befc9873076"),
    "b-consensus/restarts": (1148, "6f41d7a1c840da47283a320f64792b390886ffeb37dd2b0a0b6d936529d43b3b"),
    "modified-b-consensus/partitioned-chaos": (336, "e821a44ec249334dbf378f0ff0a19315e3c4fccba35b1f3820f3a2be62fd938c"),
    "modified-b-consensus/lossy-chaos": (237, "f2f132da1bb264349c18c9717d937dc81e432ef9ba4cd7abdfb964549b0c6ce0"),
    "modified-b-consensus/restarts": (424, "982f847199b50d5530c35353d6a93f23b0a8def06b297b56d27f5dde5937bb8c"),
}


class TestSeededDeliveryOrder:
    @pytest.mark.parametrize("key", sorted(W_DELIVERY_DIGESTS))
    def test_w_delivery_order_is_pinned(self, key, monkeypatch):
        from repro.consensus.bconsensus.common import BConsensusCore
        from repro.harness.runner import run_scenario
        from repro.params import TimingParams
        from repro.workloads.registry import WORKLOADS

        order = []
        deliver = BConsensusCore._on_wab_deliver

        def recording_deliver(self, payload, origin, timestamp):
            assert isinstance(timestamp, LogicalTimestamp)
            order.append((self.ctx.pid, origin, timestamp.counter, timestamp.pid, repr(payload)))
            deliver(self, payload, origin, timestamp)

        monkeypatch.setattr(BConsensusCore, "_on_wab_deliver", recording_deliver)
        protocol, workload = key.split("/")
        params = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
        run_scenario(WORKLOADS.create(workload, n=5, seed=1, params=params), protocol)
        digest = hashlib.sha256(json.dumps(order).encode()).hexdigest()
        assert (len(order), digest) == W_DELIVERY_DIGESTS[key]
