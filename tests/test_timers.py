"""Named per-process timers, driven through a real :class:`Simulator`.

A node keeps one pending queue entry per timer name: setting a name again
replaces the pending timer, a firing timer leaves the node's table before the
protocol sees it, and a crash drops every pending timer of the incarnation.
"""

import pytest

from repro.errors import SchedulingError
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

from tests.helpers import build_adversary, make_params


class ScriptedTimers(Process):
    """Sets the timers of ``script[None]`` at start and ``script[name]`` when ``name`` fires.

    Each script entry is a list of ``(timer, local_delay)`` pairs; a fired
    name's entry is used only on its first firing.  Every firing is logged
    as ``(pid, incarnation, name, real time)``.
    """

    def __init__(self, script, log, sim_of):
        super().__init__()
        self.script = script
        self.log = log
        self.sim_of = sim_of
        self.seen = set()

    def on_start(self):
        for timer, delay in self.script.get(None, ()):
            self.ctx.set_timer(timer, delay)

    def on_message(self, message, sender):
        pass

    def on_timer(self, name):
        sim = self.sim_of()
        pid = self.ctx.pid
        self.log.append((pid, sim.nodes[pid].incarnation, name, sim.now()))
        if name not in self.seen:
            self.seen.add(name)
            for timer, delay in self.script.get(name, ()):
                self.ctx.set_timer(timer, delay)


def build(script, n=1, rho=0.0, seed=0):
    """A simulator whose processes all follow ``script``, and its firing log."""
    log = []
    params = make_params(rho=rho)
    config = SimulationConfig(n=n, params=params, seed=seed, max_time=100.0)
    network = Network(
        model=EventualSynchrony(ts=0.0, delta=params.delta, adversary=build_adversary("benign")),
        rng=SeededRng(seed, label="net"),
    )
    sim = Simulator(config, lambda pid: ScriptedTimers(script, log, lambda: sim), network)
    return sim, log


class TestSetAndFire:
    def test_fires_at_the_real_time_of_the_local_delay(self):
        sim, log = build({None: [("session", 4.0)]}, n=3, rho=0.05, seed=3)
        sim.run()
        assert sorted(pid for pid, _, _, _ in log) == [0, 1, 2]
        assert len({time for _, _, _, time in log}) == 3  # three drifting clocks
        for pid, _, name, time in log:
            assert name == "session"
            assert time == sim.nodes[pid].clock.real_duration(4.0)

    def test_negative_delay_rejected(self):
        sim, _ = build({})
        sim.start()
        with pytest.raises(SchedulingError):
            sim.nodes[0].process.ctx.set_timer("bad", -0.1)


    def test_zero_delay_fires_at_the_same_instant_after_the_current_event(self):
        sim, log = build({None: [("a", 1.0)], "a": [("b", 0.0)]})
        sim.run()
        assert log == [(0, 1, "a", 1.0), (0, 1, "b", 1.0)]

    def test_distinct_names_fire_independently(self):
        sim, log = build({None: [("a", 2.0), ("b", 1.0)], "b": [("b", 3.0)]})
        sim.run()
        assert log == [(0, 1, "b", 1.0), (0, 1, "a", 2.0), (0, 1, "b", 4.0)]

    def test_a_timer_is_in_the_node_table_until_it_fires(self):
        sim, _ = build({None: [("tick", 1.0), ("tock", 2.0)]})
        sim.start()
        node = sim.nodes[0]
        assert set(node._timers) == {"tick", "tock"}
        sim.run(until=1.5)
        assert set(node._timers) == {"tock"}
        sim.run()
        assert node._timers == {}


class TestReset:
    def test_reset_inside_its_own_callback_fires_once_at_the_new_time(self):
        sim, log = build({None: [("tick", 1.0)], "tick": [("tick", 2.0)]})
        sim.run()
        assert log == [(0, 1, "tick", 1.0), (0, 1, "tick", 3.0)]

    def test_reset_by_another_event_at_the_same_instant_drops_the_old_entry(self):
        # "other" is set first, so at t=1 it fires before "tick" and resets it.
        sim, log = build({None: [("other", 1.0), ("tick", 1.0)], "other": [("tick", 5.0)]})
        sim.run()
        assert log == [(0, 1, "other", 1.0), (0, 1, "tick", 6.0)]

    def test_setting_a_pending_name_again_replaces_it(self):
        sim, log = build({None: [("tick", 1.0), ("tick", 2.0)]})
        sim.run()
        assert log == [(0, 1, "tick", 2.0)]


    def test_reset_to_an_earlier_time_fires_only_at_the_earlier_time(self):
        sim, log = build({None: [("tick", 5.0), ("early", 1.0)], "early": [("tick", 1.0)]})
        sim.run()
        assert log == [(0, 1, "early", 1.0), (0, 1, "tick", 2.0)]

    def test_resetting_one_node_leaves_the_same_name_on_another_node_alone(self):
        sim, log = build({None: [("tick", 1.0)]}, n=2)
        sim.start()
        sim.nodes[0].process.ctx.set_timer("tick", 5.0)
        sim.run()
        assert log == [(1, 1, "tick", 1.0), (0, 1, "tick", 5.0)]

    def test_replaced_entries_are_not_counted_as_processed_events(self):
        replaced, replaced_log = build({None: [("tick", 1.0), ("tick", 2.0)]})
        replaced.run()
        single, single_log = build({None: [("tick", 2.0)]})
        single.run()
        assert replaced_log == single_log
        assert replaced.events_processed == single.events_processed


class TestCrash:
    def test_no_pre_crash_timer_fires_but_the_restarted_incarnation_timers_do(self):
        sim, log = build({None: [("tick", 2.0), ("tock", 3.0)]}, n=2)
        sim.schedule_crash(0, 1.0)
        sim.schedule_restart(0, 1.5)
        sim.run()
        assert [entry for entry in log if entry[0] == 0] == [
            (0, 2, "tick", 3.5),
            (0, 2, "tock", 4.5),
        ]
        assert [entry for entry in log if entry[0] == 1] == [
            (1, 1, "tick", 2.0),
            (1, 1, "tock", 3.0),
        ]

    def test_crash_without_restart_fires_no_timer_and_clears_the_table(self):
        sim, log = build({None: [("tick", 2.0), ("tock", 3.0)]}, n=2)
        sim.schedule_crash(0, 1.0)
        sim.run()
        assert [entry for entry in log if entry[0] == 0] == []
        assert sim.nodes[0]._timers == {}
        assert [entry[2] for entry in log if entry[0] == 1] == ["tick", "tock"]

    def test_a_second_crash_drops_the_restarted_incarnation_timers(self):
        sim, log = build({None: [("tick", 2.0)]}, n=2)
        sim.schedule_crash(0, 1.0)
        sim.schedule_restart(0, 1.5)
        sim.schedule_crash(0, 2.5)
        sim.run()
        assert [entry for entry in log if entry[0] == 0] == []
        assert sim.nodes[0].incarnation == 2

    def test_a_crashed_incarnation_cannot_set_timers(self):
        sim, log = build({}, n=2)
        sim.start()
        stale_ctx = sim.nodes[0].process.ctx
        sim.crash(0)
        stale_ctx.set_timer("late", 1.0)
        assert sim.nodes[0]._timers == {}
        sim.run()
        assert log == []
