"""Unit tests for network accounting (`repro.net.monitor`)."""

from repro.core.messages import Phase1a, Phase2a
from repro.net.message import Envelope, Era
from repro.net.monitor import NetworkMonitor


def envelope(kind_msg, send_time, era=Era.POST, src=0, dst=1):
    return Envelope(message=kind_msg, src=src, dst=dst, send_time=send_time, era=era)


class TestCounters:
    def test_send_deliver_drop_counts(self):
        monitor = NetworkMonitor()
        first = envelope(Phase1a(mbal=1), 0.5)
        second = envelope(Phase2a(mbal=1, value="v"), 1.5, era=Era.PRE)
        monitor.on_send(first)
        monitor.on_send(second)
        monitor.on_deliver(first)
        monitor.on_drop(second)
        stats = monitor.stats
        assert stats.sent == 2
        assert stats.delivered == 1
        assert stats.dropped == 1
        assert stats.sent_pre_ts == 1
        assert stats.sent_post_ts == 1
        assert stats.by_kind == {"phase1a": 1, "phase2a": 1}
        assert stats.delivered_by_kind == {"phase1a": 1}

    def test_duplicate_and_crashed_counters(self):
        monitor = NetworkMonitor()
        env = envelope(Phase1a(mbal=1), 0.0)
        monitor.on_duplicate(env)
        monitor.on_lost_to_crashed(env)
        assert monitor.stats.duplicated == 1
        assert monitor.stats.to_crashed == 1

    def test_as_dict_roundtrip(self):
        monitor = NetworkMonitor()
        monitor.on_send(envelope(Phase1a(mbal=1), 0.0))
        data = monitor.stats.as_dict()
        assert data["sent"] == 1
        assert data["by_kind"] == {"phase1a": 1}


class TestPostTsSendRate:
    """``post_ts_send_rate(ts, end)`` counts sends in the half-open ``[ts, end)``."""

    def test_sends_at_the_final_time_are_excluded(self):
        monitor = NetworkMonitor()
        for t in (9.0, 10.0, 11.0, 12.0, 12.0):
            monitor.on_send(envelope(Phase1a(mbal=1), t, era=Era.PRE if t < 10.0 else Era.POST))
        # [10, 12) holds the sends at 10 and 11, not the two at 12.
        assert monitor.post_ts_send_rate(10.0, 12.0) == 2 / 2.0
        # Once the run ends later, the sends at 12 are inside the window.
        assert monitor.post_ts_send_rate(10.0, 13.0) == 4 / 3.0

    def test_injected_envelopes_count_by_send_time(self):
        monitor = NetworkMonitor()
        monitor.on_send(envelope(Phase1a(mbal=1), 10.5))
        # Injected envelopes are PRE whatever their send time.
        for t in (0.0, 9.5, 10.0, 11.0, 14.0, 20.0):
            monitor.on_inject(envelope(Phase1a(mbal=9), t, era=Era.PRE))
        # In [10, 14): the sent one at 10.5 and the injected ones at 10 and 11.
        assert monitor.post_ts_send_rate(10.0, 14.0) == 3 / 4.0
        assert monitor.stats.sent == 7
        assert monitor.stats.sent_pre_ts == 6

    def test_run_ending_at_or_before_ts_has_no_rate(self):
        monitor = NetworkMonitor()
        monitor.on_send(envelope(Phase1a(mbal=1), 0.5, era=Era.PRE))
        monitor.on_inject(envelope(Phase1a(mbal=9), 0.5, era=Era.PRE))
        assert monitor.post_ts_send_rate(10.0, 10.0) is None
        assert monitor.post_ts_send_rate(10.0, 4.0) is None

    def test_empty_window_after_ts_is_a_zero_rate(self):
        monitor = NetworkMonitor()
        monitor.on_send(envelope(Phase1a(mbal=1), 12.0))
        assert monitor.post_ts_send_rate(10.0, 12.0) == 0.0

    def test_run_rate_equals_the_trace_recount(self):
        from repro.harness.executors import snapshot_outcome
        from repro.harness.runner import run_scenario
        from repro.workloads.registry import WORKLOADS
        from tests.helpers import make_params

        ts = 10.0
        injected = []

        def inject(simulator):
            network = simulator.network
            for send_time in (0.0, ts + 0.5):
                injected.append(network.inject(
                    Phase1a(mbal=0), src=0, dst=1,
                    deliver_time=send_time + 1.0, send_time=send_time,
                ))

        scenario = WORKLOADS.create(
            "partitioned-chaos", n=5, seed=7, ts=ts, params=make_params()
        )
        scenario.post_setup = inject
        result = run_scenario(scenario, "modified-paxos")
        end = result.simulator.now()
        send_times = [event.time for event in result.simulator.trace.filter(event="send")]
        send_times += [env.send_time for env in injected]
        # The run must exercise both edges the counters handle.
        assert end in send_times
        assert any(ts <= env.send_time < end for env in injected)

        expected = sum(1 for t in send_times if ts <= t < end) / (end - ts)
        assert snapshot_outcome(result).extra["post_ts_send_rate"] == expected
