"""Integration tests of the kernel: Node lifecycle + Simulator + Network.

These use tiny purpose-built protocols (defined below) rather than the
consensus protocols, so kernel behaviour — delivery, timers with drift,
crash/restart, stable storage, decision recording, determinism of the event
loop — is tested in isolation.
"""

from dataclasses import dataclass

import pytest

from repro.errors import ProcessStateError, SimulationError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

from tests.helpers import build_adversary, capture_sent_envelopes, make_params, trace_wire_rows


@dataclass(frozen=True)
class Note(Message):
    kind = "note"

    text: str


class PingProcess(Process):
    """Broadcasts one note at start and records everything it receives."""

    def on_start(self):
        self.received = []
        self.ctx.broadcast(Note(text=f"hello-from-{self.ctx.pid}"), include_self=False)

    def on_message(self, message, sender):
        self.received.append((sender, message.text))

    def on_timer(self, name):
        pass


class TimerProcess(Process):
    """Counts timer firings; decides after the third one."""

    def on_start(self):
        self.fired = 0
        self.ctx.set_timer("tick", 1.0)

    def on_message(self, message, sender):
        pass

    def on_timer(self, name):
        self.fired += 1
        if self.fired >= 3:
            self.ctx.decide(f"done-{self.ctx.pid}")
        else:
            self.ctx.set_timer("tick", 1.0)


class PersistentCounterProcess(Process):
    """Persists an incarnation counter; decides on the value found on restart."""

    def on_start(self):
        boots = self.ctx.storage.get("boots", 0) + 1
        self.ctx.storage.put("boots", boots)
        if boots >= 2:
            self.ctx.decide(boots)

    def on_message(self, message, sender):
        pass

    def on_timer(self, name):
        pass


def build_simulator(factory, n=3, ts=0.0, seed=0, rho=0.0, adversary=None, max_time=1000.0):
    params = make_params(rho=rho)
    config = SimulationConfig(n=n, params=params, ts=ts, seed=seed, max_time=max_time)
    if adversary is None:
        adversary = build_adversary("benign", delta=params.delta)
    model = EventualSynchrony(ts=ts, delta=params.delta, adversary=adversary)
    network = Network(model=model, rng=SeededRng(seed, label="net"))
    return Simulator(config=config, process_factory=factory, network=network)


class TestDelivery:
    def test_every_process_receives_every_broadcast(self):
        sim = build_simulator(lambda pid: PingProcess(), n=4)
        sim.run(until=5.0)
        for pid, node in sim.nodes.items():
            senders = {sender for sender, _ in node.process.received}
            assert senders == set(range(4)) - {pid}

    def test_post_ts_delivery_within_delta(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.run(until=5.0)
        assert sent
        for envelope in sent:
            assert envelope.latency is not None
            assert envelope.latency <= sim.config.params.delta

    def test_trace_rows_match_the_envelopes_sent_and_delivered(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        trace_wire_rows(monkeypatch)
        # Before TS = 0.5 every message is dropped; afterwards all arrive.
        sim = build_simulator(lambda pid: PingProcess(), n=3, ts=0.5,
                              adversary=build_adversary("drop-all"))
        sim.schedule_at(1.0, lambda: sim.nodes[0].process.ctx.broadcast(Note(text="late")))
        sim.run(until=5.0)
        sends = sim.trace.filter(event="send")
        assert [(e.time, e.pid, e.fields["dst"], e.fields["kind"], e.fields["msg_id"],
                 e.fields["dropped"]) for e in sends] == [
            (env.send_time, env.src, env.dst, "note", env.msg_id, env.dropped) for env in sent
        ]
        assert any(env.dropped for env in sent) and not all(env.dropped for env in sent)
        delivered = sorted((env for env in sent if not env.dropped),
                           key=lambda env: (env.deliver_time, env.msg_id))
        assert [(e.time, e.pid, e.fields["src"], e.fields["kind"], e.fields["msg_id"])
                for e in sim.trace.filter(event="deliver")] == [
            (env.deliver_time, env.dst, env.src, "note", env.msg_id) for env in delivered
        ]

    def test_crashed_node_sends_nothing(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        trace_wire_rows(monkeypatch)
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.start()
        assert len(sent) == len(sim.trace.filter(event="send")) == 6
        context = sim.nodes[1].process.ctx
        sim.crash(1)
        context.send(Note(text="ghost"), 0)
        assert len(sent) == len(sim.trace.filter(event="send")) == 6
        assert sim.network.monitor.stats.sent == 6

    def test_messages_to_crashed_process_are_lost(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.schedule_crash(1, 0.01)
        sim.run(until=5.0)
        assert sim.network.monitor.stats.to_crashed > 0
        assert 1 not in sim.alive_pids()


class TestTimers:
    def test_timer_driven_decisions(self):
        sim = build_simulator(lambda pid: TimerProcess(), n=3)
        sim.run_until_decided(sim.nodes)
        assert sorted(sim.decisions) == [0, 1, 2]
        # Three ticks of one (zero-drift) local second each.
        for record in sim.decisions.values():
            assert record.time == pytest.approx(3.0)

    def test_clock_drift_changes_real_firing_times(self):
        sim = build_simulator(lambda pid: TimerProcess(), n=5, rho=0.05, seed=3)
        sim.run_until_decided(sim.nodes)
        times = sorted(record.time for record in sim.decisions.values())
        assert times[0] != times[-1]
        for time in times:
            assert 3.0 / 1.05 <= time <= 3.0 / 0.95


class TestCrashAndRestart:
    def test_crash_stops_timers_and_messages(self):
        sim = build_simulator(lambda pid: TimerProcess(), n=3)
        sim.schedule_crash(0, 1.5)
        sim.run(until=10.0)
        assert 0 not in sim.decisions
        assert 1 in sim.decisions and 2 in sim.decisions

    def test_restart_builds_fresh_instance_with_old_storage(self):
        sim = build_simulator(lambda pid: PersistentCounterProcess(), n=3)
        sim.schedule_crash(0, 1.0)
        sim.schedule_restart(0, 2.0)
        sim.run(until=5.0)
        assert sim.decisions[0].value == 2
        node = sim.nodes[0]
        assert node.incarnation == 2

    def test_crash_requires_active_process(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.run(until=1.0)
        sim.crash(0)
        with pytest.raises(ProcessStateError):
            sim.crash(0)

    def test_restart_requires_crashed_process(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.run(until=1.0)
        with pytest.raises(ProcessStateError):
            sim.restart(0)

    def test_trace_records_lifecycle_events(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.schedule_crash(2, 1.0)
        sim.schedule_restart(2, 2.0)
        sim.run(until=3.0)
        assert len(sim.trace.filter("crash", pid=2)) == 1
        assert len(sim.trace.filter("restart", pid=2)) == 1
        assert len(sim.trace.filter("start")) == 3


class TestScheduling:
    def test_cannot_schedule_in_the_past(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.run(until=2.0)
        assert sim.now() > 0.0
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.now() - 0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_in(-0.5, lambda: None)

    def test_cannot_schedule_at_nan(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_schedule_in_fires_after_the_delay_in_insertion_order(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        start = sim.now()
        calls = []
        for name in ("first", "second"):
            sim.schedule_in(0.5, lambda name=name: calls.append((name, sim.now())))
        sim.run(until=start + 1.0)
        assert calls == [("first", start + 0.5), ("second", start + 0.5)]

    def test_schedule_at_the_current_instant_is_allowed(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        sim.run(until=1.0)
        calls = []
        sim.schedule_at(sim.now(), calls.append, args=("now",))
        sim.run(until=sim.now())
        assert calls == ["now"]

    def test_schedule_at_passes_args_to_the_action(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        calls = []
        sim.schedule_at(0.25, lambda *args: calls.append((args, sim.now())), args=("a", 1))
        sim.run(until=0.5)
        assert calls == [(("a", 1), 0.25)]

    def test_scheduled_crash_and_restart_return_no_token(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        assert sim.schedule_crash(2, 1.0) is None
        assert sim.schedule_restart(2, 2.0) is None
        sim.run(until=3.0)
        assert [(event.event, event.time) for event in sim.trace.events if event.pid == 2
                and event.event in ("crash", "restart")] == [("crash", 1.0), ("restart", 2.0)]

    def test_run_respects_until(self):
        sim = build_simulator(lambda pid: TimerProcess(), n=3)
        stopped_at = sim.run(until=1.5)
        assert stopped_at <= 1.5
        assert not sim.decisions

    def test_run_respects_max_events(self):
        sim = build_simulator(lambda pid: PingProcess(), n=5)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_a_raising_handler_leaves_events_processed_at_the_events_completed_before_it(self):
        sim = build_simulator(lambda pid: PersistentCounterProcess(), n=1)
        calls = []

        def fail():
            raise RuntimeError("handler failed")

        for time in (1.0, 2.0, 4.0):
            sim.schedule_at(time, calls.append, args=(time,))
        sim.schedule_at(3.0, fail)
        sim.run(max_events=1)
        assert sim.events_processed == 1
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        # The second run completed one event before the handler raised.
        assert calls == [1.0, 2.0] and sim.events_processed == 2 and sim.now() == 3.0
        sim.run()
        assert calls == [1.0, 2.0, 4.0] and sim.events_processed == 3

    def test_stop_when_predicate(self):
        sim = build_simulator(lambda pid: TimerProcess(), n=3)
        sim.run(stop_when=lambda s: len(s.decisions) >= 1)
        assert 1 <= len(sim.decisions) <= 3


class TestDeterminism:
    def test_same_seed_gives_identical_runs(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)

        def run_once():
            sent.clear()
            sim = build_simulator(lambda pid: PingProcess(), n=4, seed=11, rho=0.02)
            sim.run(until=5.0)
            return [(env.src, env.dst, env.deliver_time, env.dropped) for env in sent]

        assert run_once() == run_once()

    def test_different_seeds_give_different_delays(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)

        def run_once(seed):
            sent.clear()
            sim = build_simulator(lambda pid: PingProcess(), n=4, seed=seed)
            sim.run(until=5.0)
            return [env.deliver_time for env in sent]

        assert run_once(1) != run_once(2)


class TestConfigValidation:
    def test_rejects_bad_configs(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimulationConfig(n=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(n=3, ts=-1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(n=3, ts=10.0, max_time=5.0)

    @pytest.mark.parametrize("field", ["ts", "max_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_times(self, field, value):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            SimulationConfig(n=3, **{field: value})

    def test_majority_property(self):
        assert SimulationConfig(n=5).majority == 3
        assert SimulationConfig(n=6).majority == 4

    def test_initial_values_padded_with_defaults(self):
        sim = build_simulator(lambda pid: PingProcess(), n=3)
        assert sim.proposals == {0: "value-0", 1: "value-1", 2: "value-2"}

    def test_explicit_initial_values(self):
        params = make_params()
        config = SimulationConfig(n=3, params=params, ts=0.0, seed=0, max_time=10.0)
        model = EventualSynchrony(ts=0.0, delta=1.0, adversary=build_adversary("benign"))
        network = Network(model=model, rng=SeededRng(0))
        sim = Simulator(config, lambda pid: PingProcess(), network, initial_values=["a", "b"])
        assert sim.proposals == {0: "a", 1: "b", 2: "value-2"}
