"""Property-based end-to-end tests: consensus safety under randomized adversity.

Hypothesis drives whole simulations with randomly chosen system sizes,
seeds, stabilization times, and adversary parameters, for each protocol.
Safety (validity, agreement, integrity) must hold in every execution — even
ones too short or too hostile for anyone to decide — and the protocol trace
invariants must hold as well.  Sizes are kept small so the suite stays fast;
the point is breadth of adversarial schedules, not scale.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_session_entry_rule, check_unique_phase2a_value
from repro.consensus.spec import check_safety
from repro.harness.runner import run_scenario
from repro.workloads.chaos import lossy_chaos_scenario, partitioned_chaos_scenario
from repro.workloads.environments import environment_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params

FAST_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PARAMS = make_params(rho=0.01)
PROTOCOLS = st.sampled_from(
    ["modified-paxos", "traditional-paxos", "rotating-coordinator", "modified-b-consensus"]
)


class TestSafetyUnderRandomizedChaos:
    @FAST_SETTINGS
    @given(
        protocol=PROTOCOLS,
        n=st.integers(3, 6),
        seed=st.integers(0, 10_000),
        ts=st.floats(2.0, 12.0),
        drop=st.floats(0.3, 0.95),
    )
    def test_lossy_chaos_never_violates_safety(self, protocol, n, seed, ts, drop):
        # The lossy-chaos spec with its random-chaos drop rate swept.
        spec = lossy_chaos_scenario(n).environment
        adversary = replace(spec.adversary, params={**spec.adversary.params, "drop_probability": drop})
        scenario = environment_scenario(
            replace(spec, adversary=adversary),
            n=n, params=PARAMS, ts=ts, seed=seed, max_time=ts + 60.0,
        )
        result = run_scenario(scenario, protocol, enforce=False)
        report = check_safety(result.simulator, expected_deciders=scenario.deciders())
        assert report.valid, report.violations

    @FAST_SETTINGS
    @given(
        protocol=PROTOCOLS,
        n=st.integers(3, 6),
        seed=st.integers(0, 10_000),
    )
    def test_partitioned_chaos_never_violates_safety(self, protocol, n, seed):
        scenario = partitioned_chaos_scenario(
            n, params=PARAMS, ts=6.0, seed=seed, max_time=60.0
        )
        result = run_scenario(scenario, protocol, enforce=False)
        report = check_safety(result.simulator, expected_deciders=scenario.deciders())
        assert report.valid, report.violations

    @FAST_SETTINGS
    @given(n=st.integers(3, 6), seed=st.integers(0, 10_000))
    def test_modified_paxos_invariants_under_random_chaos(self, n, seed):
        scenario = lossy_chaos_scenario(n, params=PARAMS, ts=6.0, seed=seed, max_time=60.0)
        result = run_scenario(scenario, "modified-paxos")
        assert check_session_entry_rule(result.simulator.trace, n).ok
        assert check_unique_phase2a_value(result.simulator.trace, n).ok

    @FAST_SETTINGS
    @given(
        protocol=PROTOCOLS,
        n=st.integers(3, 6),
        seed=st.integers(0, 10_000),
        values=st.lists(st.sampled_from(["red", "green", "blue"]), min_size=6, max_size=6),
    )
    def test_decided_value_is_always_someones_proposal(self, protocol, n, seed, values):
        scenario = stable_scenario(n, params=PARAMS, seed=seed)
        scenario.initial_values = values[:n]
        result = run_scenario(scenario, protocol)
        decided = {record.value for record in result.simulator.decisions.values()}
        assert len(decided) == 1
        assert decided.pop() in values[:n]


class TestDeterminismProperty:
    @FAST_SETTINGS
    @given(
        protocol=PROTOCOLS,
        n=st.integers(3, 5),
        seed=st.integers(0, 10_000),
    )
    def test_same_configuration_replays_identically(self, protocol, n, seed):
        def run_once():
            scenario = partitioned_chaos_scenario(
                n, params=PARAMS, ts=5.0, seed=seed, max_time=60.0
            )
            result = run_scenario(scenario, protocol)
            return (
                {pid: (rec.value, rec.time) for pid, rec in result.simulator.decisions.items()},
                result.outcome.messages_sent,
                result.simulator.events_processed,
            )

        assert run_once() == run_once()
