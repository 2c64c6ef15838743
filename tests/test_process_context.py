"""Unit tests for the protocol-facing context (`repro.sim.process`)."""

from repro.core.messages import Phase1a

from tests.helpers import ContextHarness, make_params


class TestIdentity:
    def test_majority_is_floor_half_plus_one(self):
        assert ContextHarness(pid=0, n=3).ctx.majority == 2
        assert ContextHarness(pid=0, n=4).ctx.majority == 3
        assert ContextHarness(pid=0, n=5).ctx.majority == 3
        assert ContextHarness(pid=0, n=7).ctx.majority == 4

    def test_params_exposed(self):
        harness = ContextHarness(params=make_params(delta=2.0, epsilon=0.3))
        assert harness.ctx.params.delta == 2.0
        assert harness.ctx.params.epsilon == 0.3


class TestCommunication:
    def test_send_records_destination(self):
        harness = ContextHarness(pid=0, n=3)
        harness.ctx.send(Phase1a(mbal=1), dst=2)
        assert [item.dst for item in harness.sent] == [2]

    def test_broadcast_includes_self_by_default(self):
        harness = ContextHarness(pid=1, n=4)
        harness.ctx.broadcast(Phase1a(mbal=1))
        assert sorted(item.dst for item in harness.sent) == [0, 1, 2, 3]

    def test_broadcast_can_exclude_self(self):
        harness = ContextHarness(pid=1, n=4)
        harness.ctx.broadcast(Phase1a(mbal=1), include_self=False)
        assert sorted(item.dst for item in harness.sent) == [0, 2, 3]


class TestTimersAndDecision:
    def test_setting_a_timer_again_replaces_it(self):
        harness = ContextHarness()
        harness.ctx.set_timer("session", 4.0)
        harness.ctx.set_timer("session", 6.0)
        assert harness.timers == {"session": 6.0}

    def test_decide_is_recorded(self):
        harness = ContextHarness()
        harness.ctx.decide("v")
        assert harness.decisions == ["v"]

    def test_emit_records_structured_fields(self):
        harness = ContextHarness()
        harness.ctx.emit("session_enter", session=3, via="test")
        assert harness.emitted == [("session_enter", {"session": 3, "via": "test"})]

    def test_local_time_reflects_harness(self):
        harness = ContextHarness()
        assert harness.ctx.local_time() == 0.0
        harness.advance_local_time(2.5)
        assert harness.ctx.local_time() == 2.5
