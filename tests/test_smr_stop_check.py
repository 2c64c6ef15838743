"""An SMR run stops on the event that completes it, exactly where a predicate would.

``MultiPaxosSmrBuilder.run_to_stop`` evaluates no predicate per event: a
replica that learns a scheduled command, or restarts with its log restored,
halts the run from inside that event once every expected replica's current
incarnation holds every scheduled command.  The reference below is the
full-rescan ``stop_when`` predicate, which rebuilds a command → replicas map
from every replica's whole log after every event.  Both must end every run
at the same event, at the same simulated time, with the same outcome.
"""

from typing import Dict, Set

import pytest

from repro.faults.plan import FaultPlan
from repro.harness.executors import SmrTask, build_task_scenario
from repro.harness.runner import run_scenario
from repro.sim.simulator import Simulator
from repro.smr.multi_paxos import MultiPaxosSmrBuilder, MultiPaxosSmrProcess
from repro.smr.workload import ScheduleSpec
from repro.workloads.smr import SMR_WORKLOADS
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params


def reference_caught_up(sim: Simulator, expected_replicas: Set[int], expected_commands: Set[str]) -> bool:
    """The full-rescan stop predicate: O(total log length) per call."""
    if not expected_commands:
        return False
    learned: Dict[str, set] = {}
    for node in sim.nodes.values():
        process = node.process
        if not isinstance(process, MultiPaxosSmrProcess) or node.pid not in expected_replicas:
            continue
        for _, value in sorted(process.log.snapshot().items()):
            if isinstance(value, tuple) and len(value) == 2:
                learned.setdefault(value[0], set()).add(node.pid)
    return all(
        expected_replicas.issubset(learned.get(command_id, set()))
        for command_id in expected_commands
    )


def predicate_stop(builder, simulator, deciders):
    replicas, commands = set(deciders), set(builder.command_ids)
    simulator.run(stop_when=lambda s: reference_caught_up(s, replicas, commands))


def horizon_stop(builder, simulator, deciders):
    simulator.run()


def observed(result):
    return result.simulator.events_processed, result.simulator.now(), result.outcome


def run_with(monkeypatch, run, stop=None):
    """``run()``'s observed end, with ``stop`` in place of the builder's own stop if given."""
    with monkeypatch.context() as patch:
        if stop is not None:
            patch.setattr(MultiPaxosSmrBuilder, "run_to_stop", stop)
        return observed(run())


def smr_task(workload: str, seed: int) -> SmrTask:
    """Eight commands submitted at the first expected replica, over a 30δ horizon.

    Some seeds of the partitioned workloads leave commands unlearned at the
    horizon, so those runs end there rather than on the stop event.
    """
    kwargs = {"n": 5, "seed": seed, "max_time": 30.0}
    target = build_task_scenario(SmrTask(workload, ScheduleSpec(), kwargs)).deciders()[0]
    return SmrTask(
        workload=workload,
        workload_kwargs=kwargs,
        schedule=ScheduleSpec(num_commands=8, start=1.0, interval=0.9, target_pid=target),
    )


@pytest.mark.parametrize("workload", SMR_WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stops_on_the_same_event_as_the_predicate(monkeypatch, workload, seed):
    task = smr_task(workload, seed)
    assert run_with(monkeypatch, task.run) == run_with(monkeypatch, task.run, predicate_stop)


def test_runs_without_a_per_event_predicate(monkeypatch):
    calls = []
    run = Simulator.run

    def recording_run(self, until=None, stop_when=None, max_events=None):
        calls.append((until, stop_when, max_events))
        return run(self, until, stop_when, max_events)

    monkeypatch.setattr(Simulator, "run", recording_run)
    smr_task("smr-chaos", 1).run()
    assert calls == [(None, None, None)]


class TestRunsThatEndAtTheHorizon:
    """With nothing to wait for, or a replica that cannot be waited for, no stop event exists."""

    def scenario(self):
        return stable_scenario(5, params=make_params(), seed=2, max_time=30.0)

    def assert_runs_to_the_horizon(self, monkeypatch, run):
        own = run_with(monkeypatch, run)
        assert own == run_with(monkeypatch, run, predicate_stop)
        assert own == run_with(monkeypatch, run, horizon_stop)
        assert own[1] <= 30.0

    def test_an_empty_schedule(self, monkeypatch):
        self.assert_runs_to_the_horizon(
            monkeypatch, lambda: run_scenario(self.scenario(), MultiPaxosSmrBuilder())
        )

    def test_an_expected_replica_back_only_after_the_horizon(self, monkeypatch):
        def run():
            scenario = self.scenario()
            # p3 restarts after the horizon: it is expected, but never catches up.
            scenario.fault_plan = FaultPlan().crash(3, 0.5).restart(3, 100.0)
            scenario.allow_post_ts_crashes = True
            schedule = ScheduleSpec(num_commands=4, start=1.0, interval=0.5, target_pid=4)
            return run_scenario(scenario, MultiPaxosSmrBuilder(schedule))

        self.assert_runs_to_the_horizon(monkeypatch, run)
        # Every replica that is up learned every command long before the horizon.
        outcome = run().outcome
        assert all(
            set(record.learned_times) == {0, 1, 2, 4} and max(record.learned_times.values()) < 10.0
            for record in outcome.commands.values()
        )


class TestCrashedReplicaHoldsTheRun:
    """A replica that is down is not caught up, even with a complete log on disk.

    Replica 1 is down while the commands are decided and catches up after it
    restarts at t=30; replica 2 learns every command, crashes at t=20 and is
    still down when replica 1's last learn happens.  A count of learns would
    stop there; the run has to go on until replica 2 is back at t=60.
    """

    LATE, LEAVER = 1, 2
    LEAVE_AT, LATE_BACK_AT, LEAVER_BACK_AT = 20.0, 30.0, 60.0

    def run(self):
        scenario = stable_scenario(5, params=make_params(), seed=3, max_time=200.0)
        scenario.fault_plan = (
            FaultPlan()
            .crash(self.LATE, 0.5)
            .crash(self.LEAVER, self.LEAVE_AT)
            .restart(self.LATE, self.LATE_BACK_AT)
            .restart(self.LEAVER, self.LEAVER_BACK_AT)
        )
        scenario.allow_post_ts_crashes = True
        schedule = ScheduleSpec(num_commands=4, start=1.0, interval=0.5, target_pid=4)
        return run_scenario(scenario, MultiPaxosSmrBuilder(schedule))

    def test_run_waits_for_the_crashed_replica(self):
        result = self.run()
        assert result.outcome.all_decided
        records = result.outcome.commands.values()
        # The leaver had the whole log before it went down ...
        assert all(record.learned_times[self.LEAVER] < self.LEAVE_AT for record in records)
        # ... and the last learn anywhere happened while it was down.
        last_learn = max(max(record.learned_times.values()) for record in records)
        assert self.LATE_BACK_AT <= last_learn < self.LEAVER_BACK_AT
        # The run stopped on the restart event: the recovered log is complete.
        assert result.simulator.now() == self.LEAVER_BACK_AT
        assert result.simulator.nodes[self.LEAVER].incarnation == 2

    def test_matches_full_rescan(self, monkeypatch):
        assert run_with(monkeypatch, self.run) == run_with(monkeypatch, self.run, predicate_stop)
