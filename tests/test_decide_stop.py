"""``run_until_decided`` stops on the deciding event, exactly where a predicate would.

``Simulator.run_until_decided`` evaluates no predicate per event: the
simulator's decision bookkeeping halts the run from inside the event in
which the last awaited pid decides.  The reference below is the per-event
``stop_when`` predicate it replaced.  Both must end every run at the same
event, at the same simulated time, with the same decisions.
"""

import pytest

from repro.consensus.registry import PROTOCOLS, protocol_builder
from repro.sim.simulator import Simulator
from repro.workloads.registry import WORKLOADS

WORKLOAD_NAMES = ("stable", "partitioned-chaos", "restarts")
SEEDS = (1, 2, 3)


def build(protocol, workload, seed, **kwargs):
    scenario = WORKLOADS.create(workload, n=5, seed=seed, **kwargs)
    return scenario.build_simulator(protocol_builder(protocol)), set(scenario.deciders())


def run_reference(sim, targets):
    return sim.run(stop_when=lambda s: targets <= s.decisions.keys())


def observed(sim):
    return sim.events_processed, sim.now(), sim.all_decisions


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_stops_on_the_same_event_as_the_predicate(protocol, workload, seed):
    sim, targets = build(protocol, workload, seed)
    reference, _ = build(protocol, workload, seed)
    assert sim.run_until_decided(targets) == run_reference(reference, targets)
    assert targets <= sim.decisions.keys()
    assert observed(sim) == observed(reference)


def test_runs_without_a_per_event_predicate(monkeypatch):
    calls = []
    run = Simulator.run

    def recording_run(self, until=None, stop_when=None, max_events=None):
        calls.append((until, stop_when, max_events))
        return run(self, until, stop_when, max_events)

    monkeypatch.setattr(Simulator, "run", recording_run)
    sim, targets = build("modified-paxos", "partitioned-chaos", 1)
    sim.run_until_decided(targets)
    assert calls == [(None, None, None)]


def test_targets_already_decided_process_one_event_like_the_predicate():
    sim, targets = build("modified-paxos", "stable", 1)
    reference, _ = build("modified-paxos", "stable", 1)
    sim.run_until_decided(targets)
    run_reference(reference, targets)
    before = sim.events_processed
    sim.run_until_decided(targets)
    run_reference(reference, targets)
    assert sim.events_processed == before + 1
    assert observed(sim) == observed(reference)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_a_target_that_never_decides_runs_to_the_horizon(protocol):
    runs = []
    for stop in ("decided", "predicate", "horizon"):
        sim, targets = build(protocol, "stable", 2, max_time=30.0)
        assert 4 in targets
        sim.schedule_crash(4, 0.5)  # p4 crashes for good and never decides
        if stop == "decided":
            sim.run_until_decided(targets)
        elif stop == "predicate":
            run_reference(sim, targets)
        else:
            sim.run()
        assert 4 not in sim.decisions
        runs.append(observed(sim))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1] <= 30.0


def test_a_later_plain_run_is_not_cut_short():
    sim, targets = build("modified-paxos", "partitioned-chaos", 3)
    reference, _ = build("modified-paxos", "partitioned-chaos", 3)
    sim.run_until_decided(targets)
    run_reference(reference, targets)
    until = sim.now() + 20.0
    sim.run(until=until)
    reference.run(until=until)
    assert observed(sim) == observed(reference)
    assert sim.now() > until - 1.0
