"""Unit tests for the Ω oracle (`repro.oracle.omega`)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.oracle.omega import OmegaOracle
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

from tests.helpers import make_params


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
        model=EventualSynchrony(ts=ts, delta=params.delta), rng=SeededRng(seed, label="net")
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

    def test_convergence_time_is_ts_plus_delay(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim, stabilization_delay=2.5)
        assert oracle.convergence_time == 12.5

    def test_custom_pre_stability_behaviour(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim, pre_stability_leader=lambda pid, now: 3)
        assert oracle.leader(0) == 3

    def test_believes_self_leader(self):
        sim = make_simulator(ts=10.0)
        oracle = OmegaOracle(sim)
        assert oracle.believes_self_leader(2)

    def test_counts_queries(self):
        sim = make_simulator()
        oracle = OmegaOracle(sim)
        oracle.leader(0)
        oracle.leader(1)
        assert oracle.queries == 2

    def test_negative_delay_rejected(self):
        sim = make_simulator()
        with pytest.raises(ConfigurationError):
            OmegaOracle(sim, stabilization_delay=-1.0)
