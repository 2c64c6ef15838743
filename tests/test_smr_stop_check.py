"""The SMR runner's incremental stop check stops exactly where a full rescan does.

``run_smr`` stops once every expected replica has learned every scheduled
command.  It answers that from each log's incrementally maintained
``command_ids`` set; the reference below is the full-rescan predicate it
replaced, which rebuilt a command → replicas map from every replica's whole
log after every event.  Both must agree on every event of every run, so the
runner stops at the same event, at the same simulated time, with the same
outcome.
"""

from typing import Dict, Iterable, Set

import pytest

from repro.faults.plan import FaultPlan
from repro.harness.executors import SmrTask, build_task_scenario
from repro.sim.simulator import Simulator
from repro.smr.multi_paxos import MultiPaxosSmrProcess
from repro.smr.outcome import snapshot_smr_outcome
from repro.smr.runner import run_smr
from repro.smr.workload import ScheduleSpec, uniform_schedule
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


def use_reference_stop(monkeypatch, expected_replicas: Iterable[int], expected_commands: Iterable[str]):
    """Make ``Simulator.run`` stop on the reference predicate.

    The runner's own predicate is still evaluated after every event; the
    events where the two disagree are collected in the returned list.
    """
    replicas, commands = set(expected_replicas), set(expected_commands)
    original_run = Simulator.run
    disagreements = []

    def run(sim, until=None, stop_when=None, max_events=None):
        def reference_stop(s):
            expected = reference_caught_up(s, replicas, commands)
            if stop_when(s) != expected:
                disagreements.append((s.events_processed, s.now()))
            return expected

        return original_run(sim, until=until, stop_when=reference_stop, max_events=max_events)

    monkeypatch.setattr(Simulator, "run", run)
    return disagreements


def smr_task(workload: str, seed: int) -> SmrTask:
    """Eight commands submitted at the first expected replica, over a 30δ horizon.

    Some seeds of the partitioned workloads leave commands unlearned at the
    horizon, so those runs end there rather than on the stop check.
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
def test_stop_point_matches_full_rescan(monkeypatch, workload, seed):
    task = smr_task(workload, seed)
    result = task.run()

    scenario = build_task_scenario(task)
    schedule = task.schedule.to_schedule(scenario.config.n)
    disagreements = use_reference_stop(monkeypatch, scenario.deciders(), schedule.command_ids)
    reference = task.run()

    assert disagreements == []
    assert result.simulator.events_processed == reference.simulator.events_processed
    assert result.simulator.now() == reference.simulator.now()
    assert snapshot_smr_outcome(result, workload) == snapshot_smr_outcome(reference, workload)


class TestCrashedReplicaHoldsTheRun:
    """A replica that is down is not caught up, even with a complete log on disk.

    Replica 1 is down while the commands are decided and catches up after it
    restarts at t=30; replica 2 learns every command, crashes at t=20 and is
    still down when replica 1's last learn happens.  A count of learns would
    stop there; the run has to go on until replica 2 is back at t=60.
    """

    LATE, LEAVER = 1, 2
    LEAVE_AT, LATE_BACK_AT, LEAVER_BACK_AT = 20.0, 30.0, 60.0

    def scenario(self):
        scenario = stable_scenario(5, params=make_params(), seed=3, max_time=200.0)
        scenario.fault_plan = (
            FaultPlan()
            .crash(self.LATE, 0.5)
            .crash(self.LEAVER, self.LEAVE_AT)
            .restart(self.LATE, self.LATE_BACK_AT)
            .restart(self.LEAVER, self.LEAVER_BACK_AT)
        )
        scenario.allow_post_ts_crashes = True
        return scenario

    def schedule(self):
        return uniform_schedule(5, num_commands=4, start=1.0, interval=0.5, target_pid=4)

    def test_run_waits_for_the_crashed_replica(self):
        result = run_smr(self.scenario(), self.schedule())
        assert result.all_commands_learned_everywhere
        records = result.commands.values()
        # The leaver had the whole log before it went down ...
        assert all(record.learned_times[self.LEAVER] < self.LEAVE_AT for record in records)
        # ... and the last learn anywhere happened while it was down.
        last_learn = max(max(record.learned_times.values()) for record in records)
        assert self.LATE_BACK_AT <= last_learn < self.LEAVER_BACK_AT
        # The run stopped on the restart event: the recovered log is complete.
        assert result.simulator.now() == self.LEAVER_BACK_AT
        assert result.simulator.nodes[self.LEAVER].incarnation == 2

    def test_matches_full_rescan(self, monkeypatch):
        result = run_smr(self.scenario(), self.schedule())
        scenario, schedule = self.scenario(), self.schedule()
        disagreements = use_reference_stop(monkeypatch, scenario.deciders(), schedule.command_ids)
        reference = run_smr(scenario, schedule)
        assert disagreements == []
        assert result.simulator.events_processed == reference.simulator.events_processed
        assert result.simulator.now() == reference.simulator.now()
        assert snapshot_smr_outcome(result) == snapshot_smr_outcome(reference)
