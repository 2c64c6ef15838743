"""Unit tests for the shared consensus machinery: base class, spec, protocol table, outcomes."""

import pytest

from repro.consensus.base import ConsensusProcess, ProtocolBuilder
from repro.consensus.registry import PROTOCOLS, protocol_builder
from repro.consensus.spec import check_safety
from repro.consensus.values import DecisionOutcome, RunOutcome
from repro.errors import (
    AgreementViolation,
    ConfigurationError,
    ProtocolError,
    ValidityViolation,
)
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

from tests.helpers import ContextHarness


class MinimalConsensus(ConsensusProcess):
    """Smallest possible consensus process: decides its own proposal at start."""

    def on_start(self):
        if not self.recover_decision():
            self.decide_once(self.proposal())

    def on_message(self, message, sender):
        pass

    def on_timer(self, name):
        pass


class TestConsensusProcess:
    def test_decide_once_persists_and_reports(self):
        harness = ContextHarness(pid=0, n=3)
        process = harness.start(MinimalConsensus(), initial_value="mine")
        assert process.has_decided
        assert process.decided_value == "mine"
        assert harness.decisions == ["mine"]
        assert harness.storage.get("consensus:decided_value") == "mine"

    def test_changing_the_decision_raises(self):
        harness = ContextHarness()
        process = harness.start(MinimalConsensus(), initial_value="a")
        with pytest.raises(ProtocolError):
            process.decide_once("b")

    def test_redeciding_same_value_is_noop(self):
        harness = ContextHarness()
        process = harness.start(MinimalConsensus(), initial_value="a")
        process.decide_once("a")
        assert harness.decisions == ["a"]

    def test_recover_decision_after_restart(self):
        harness = ContextHarness()
        harness.start(MinimalConsensus(), initial_value="a")
        restarted = harness.restart(MinimalConsensus(), initial_value="ignored-after-recovery")
        assert restarted.decided_value == "a"
        assert harness.decisions[-1] == "a"

    def test_shorthand_properties(self):
        harness = ContextHarness(pid=2, n=5)
        process = harness.start(MinimalConsensus(), initial_value="x")
        assert process.pid == 2
        assert process.n == 5
        assert process.quorum == 3
        assert process.delta == harness.params.delta
        assert process.epsilon == harness.params.epsilon

    def test_persist_and_recall(self):
        harness = ContextHarness()
        process = harness.start(MinimalConsensus(), initial_value="x")
        process.persist(round=4, estimate="v")
        assert process.recall("round") == 4
        assert process.recall("missing", default=9) == 9


class TestProtocolTable:
    def test_table_contains_all_protocols(self):
        assert set(PROTOCOLS) == {
            "modified-paxos",
            "traditional-paxos",
            "rotating-coordinator",
            "b-consensus",
            "modified-b-consensus",
        }

    def test_protocol_builder_builds_builder(self):
        builder = protocol_builder("modified-paxos")
        assert isinstance(builder, ProtocolBuilder)
        assert type(builder).name == "modified-paxos"

    def test_unknown_protocol_raises_with_suggestions(self):
        with pytest.raises(ConfigurationError) as excinfo:
            protocol_builder("raft")
        assert "modified-paxos" in str(excinfo.value)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_key_is_the_builder_name(self, name):
        # run_scenario reports type(builder).name for a pre-built builder,
        # so a table key and its builder's name must agree.
        assert PROTOCOLS[name][0].name == name

    def test_contains(self):
        assert "modified-paxos" in PROTOCOLS
        assert "raft" not in PROTOCOLS


def _make_sim(n=3):
    config = SimulationConfig(n=n, ts=1.0, seed=0, max_time=10.0)
    network = Network(model=EventualSynchrony(ts=1.0, delta=1.0), rng=SeededRng(0))

    class Idle(Process):
        def on_start(self):
            pass

        def on_message(self, message, sender):
            pass

        def on_timer(self, name):
            pass

    sim = Simulator(config, lambda pid: Idle(), network)
    sim.start()
    return sim


class TestSafetySpec:
    def test_clean_run_passes(self):
        sim = _make_sim()
        sim.record_decision(0, "value-1", 1)
        sim.record_decision(1, "value-1", 1)
        report = check_safety(sim)
        assert report.valid
        assert report.decided_value == "value-1"
        assert report.undecided_pids == [2]
        report.raise_if_violated()

    def test_validity_violation_detected(self):
        sim = _make_sim()
        sim.record_decision(0, "never-proposed", 1)
        report = check_safety(sim)
        assert not report.valid
        with pytest.raises(ValidityViolation):
            report.raise_if_violated()

    def test_agreement_violation_detected(self):
        sim = _make_sim()
        sim.record_decision(0, "value-0", 1)
        sim.record_decision(1, "value-1", 1)
        report = check_safety(sim)
        assert not report.valid
        with pytest.raises(AgreementViolation):
            report.raise_if_violated()

    def test_integrity_violation_detected(self):
        sim = _make_sim()
        sim.record_decision(0, "value-0", 1)
        sim.record_decision(0, "value-1", 2)
        report = check_safety(sim)
        assert not report.valid
        # Agreement is also violated here and takes precedence in the raise.
        assert any("integrity" in violation for violation in report.violations)

    def test_repeated_identical_decision_is_fine(self):
        sim = _make_sim()
        sim.record_decision(0, "value-0", 1)
        sim.record_decision(0, "value-0", 2)
        assert check_safety(sim).valid

    def test_expected_deciders_narrow_the_report(self):
        sim = _make_sim()
        sim.record_decision(0, "value-0", 1)
        report = check_safety(sim, expected_deciders=[0, 1])
        assert report.undecided_pids == [1]


class TestRunOutcome:
    def _outcome(self):
        return RunOutcome(
            protocol="modified-paxos",
            n=3,
            ts=5.0,
            delta=1.0,
            seed=0,
            decisions=[
                DecisionOutcome(pid=0, value="v", time=7.0, after_stability=2.0),
                DecisionOutcome(pid=1, value="v", time=4.0, after_stability=-1.0),
            ],
            proposals={0: "v", 1: "v", 2: "w"},
            undecided_pids=[2],
        )

    def test_decision_lookup(self):
        outcome = self._outcome()
        assert outcome.decision_of(0).time == 7.0
        assert outcome.decision_of(9) is None
        assert not outcome.all_decided
        assert outcome.decided_values == ["v", "v"]

    def test_max_decision_after_stability_clamps_early_deciders(self):
        outcome = self._outcome()
        assert outcome.max_decision_after_stability() == 2.0
        assert outcome.max_decision_after_stability(pids=[1]) == 0.0
        assert outcome.max_decision_after_stability(pids=[5]) is None

    def test_decided_before_stability_flag(self):
        outcome = self._outcome()
        assert outcome.decisions[1].decided_before_stability
        assert not outcome.decisions[0].decided_before_stability

    def test_describe(self):
        text = self._outcome().describe()
        assert "modified-paxos" in text and "decided=2/3" in text
