"""Unit tests for the Ω oracle (`repro.oracle.omega`)."""

from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.oracle.omega import OmegaOracle
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

from tests.helpers import build_adversary, make_params


class IdleProcess(Process):
    def on_start(self):
        pass

    def on_message(self, message, sender):
        pass

    def on_timer(self, name):
        pass


def make_simulator(n=5, ts=10.0, seed=0):
    params = make_params()
    config = SimulationConfig(n=n, params=params, ts=ts, seed=seed, max_time=1000.0)
    network = Network(
        model=EventualSynchrony(ts=ts, delta=params.delta, adversary=build_adversary("benign")),
        rng=SeededRng(seed, label="net"),
    )
    sim = Simulator(config, lambda pid: IdleProcess(), network)
    sim.start()
    return sim


class TestOmega:
    def test_before_convergence_everyone_trusts_themselves_by_default(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim)
        assert [oracle.leader(pid) for pid in range(5)] == [0, 1, 2, 3, 4]

    def test_after_convergence_unique_lowest_alive_leader(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim)
        sim.crash(0)
        sim.schedule_at(oracle.convergence_time + 0.1, lambda: None)
        sim.run(until=oracle.convergence_time + 0.2)
        leaders = {oracle.leader(pid) for pid in range(1, 5)}
        assert leaders == {1}

    def test_convergence_time_is_ts_plus_delta(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim)
        assert oracle.convergence_time == 10.0 + sim.config.params.delta

    def test_converges_exactly_delta_after_ts(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim)
        delta = sim.config.params.delta
        for time in (10.0 + 0.99 * delta, 10.0 + delta):
            sim.schedule_at(time, lambda: None)
        sim.run(until=10.0 + 0.99 * delta)
        assert sim.now() == 10.0 + 0.99 * delta
        assert [oracle.leader(pid) for pid in range(5)] == [0, 1, 2, 3, 4]
        sim.run(until=10.0 + delta)
        assert sim.now() == 10.0 + delta
        assert {oracle.leader(pid) for pid in range(5)} == {0}

    def test_believes_self_leader(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim)
        assert oracle.believes_self_leader(2)
