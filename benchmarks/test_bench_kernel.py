"""Micro-benchmarks of the simulation kernel itself.

These are conventional pytest-benchmark micro-benchmarks (many iterations):
they track the cost of the event queue and of a full simulated broadcast
workload, which bounds how large the experiment sweeps can be pushed.
"""

from repro.env.spec import AdversarySpec, EnvironmentSpec
from repro.sim.events import EventQueue
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator
from repro.params import TimingParams


def test_bench_event_queue_push_pop(benchmark):
    """Push 2000 entries, then drain them through pop_before (the run-loop path)."""

    def action():
        pass

    def push_pop():
        queue = EventQueue()
        for i in range(2000):
            queue.push(float(i % 97), action)
        while queue.pop_before(float("inf")) is not None:
            pass

    benchmark(push_pop)


class _Gossip(Process):
    """Every process re-broadcasts on a short timer for a fixed horizon."""

    def on_start(self):
        self.ctx.set_timer("tick", 0.5)

    def on_message(self, message, sender):
        pass

    def on_timer(self, name):
        from repro.core.messages import Phase1a

        self.ctx.broadcast(Phase1a(mbal=self.ctx.pid))
        self.ctx.set_timer("tick", 0.5)


def test_bench_simulator_throughput(benchmark):
    def run_simulation():
        params = TimingParams(delta=1.0, rho=0.0, epsilon=0.5)
        config = SimulationConfig(n=9, params=params, ts=0.0, seed=1, max_time=30.0)
        network = EnvironmentSpec(AdversarySpec("benign")).build_network(config, SeededRng(1))
        sim = Simulator(config, lambda pid: _Gossip(), network)
        sim.run(until=30.0)
        return sim.events_processed

    events = benchmark.pedantic(run_simulation, rounds=3, iterations=1)
    assert events > 1000


def test_bench_modified_paxos_stable_run(benchmark):
    """End-to-end cost of one stable-case Modified Paxos run (n=9)."""
    from repro.harness.runner import run_scenario
    from repro.workloads.stable import stable_scenario
    from repro.harness.experiments import default_experiment_params

    params = default_experiment_params()

    def run_once():
        result = run_scenario(stable_scenario(9, params=params, seed=5), "modified-paxos")
        assert result.decided_all
        return result.outcome.messages_sent

    benchmark.pedantic(run_once, rounds=3, iterations=1)
