"""Property-based tests of the SMR layer: log consistency under random adversity."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.runner import run_scenario
from repro.smr.metrics import check_log_consistency, replica_digests
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.state_machine import KeyValueStore
from repro.smr.workload import ScheduleSpec
from repro.workloads.chaos import lossy_chaos_scenario, partitioned_chaos_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params

FAST_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PARAMS = make_params(rho=0.01)

# Random command batches: (pid offset, submit time, key, value)
COMMANDS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.floats(0.5, 20.0),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=8,
)


def build_schedule(n, raw_commands, allowed_pids):
    allowed = sorted(allowed_pids)
    return ScheduleSpec(entries=tuple(
        (allowed[pid_offset % len(allowed)], submit_at, f"cmd-{index}", ("set", key, value))
        for index, (pid_offset, submit_at, key, value) in enumerate(raw_commands)
    ))


class TestSmrSafetyProperties:
    @FAST_SETTINGS
    @given(n=st.integers(3, 5), seed=st.integers(0, 5_000), raw=COMMANDS)
    def test_logs_never_conflict_under_lossy_chaos(self, n, seed, raw):
        scenario = lossy_chaos_scenario(n, params=PARAMS, ts=6.0, seed=seed, max_time=80.0)
        schedule = build_schedule(n, raw, scenario.deciders())
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule), enforce=False)
        # check_log_consistency raises AgreementViolation on any conflict.
        assert check_log_consistency(result.simulator) >= 0

    @FAST_SETTINGS
    @given(n=st.integers(3, 5), seed=st.integers(0, 5_000), raw=COMMANDS)
    def test_contiguous_prefixes_yield_identical_state_machines(self, n, seed, raw):
        scenario = partitioned_chaos_scenario(n, params=PARAMS, ts=6.0, seed=seed, max_time=120.0)
        schedule = build_schedule(n, raw, scenario.deciders())
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule), enforce=False)
        digests = replica_digests(result.simulator, KeyValueStore)
        # Replicas may have learned prefixes of different lengths, but whenever
        # two replicas both learned a slot they learned the same command, so
        # the *shorter* prefix is always a prefix of the longer one.  Compare
        # the common prefix of applied commands instead of full digests.
        logs = {
            pid: node.process.log.contiguous_prefix()
            for pid, node in result.simulator.nodes.items()
            if node.process is not None and hasattr(node.process, "log")
        }
        min_length = min((len(prefix) for prefix in logs.values()), default=0)
        reference = None
        for prefix in logs.values():
            head = prefix[:min_length]
            if reference is None:
                reference = head
            assert head == reference
        assert digests is not None

    @FAST_SETTINGS
    @given(seed=st.integers(0, 5_000), raw=COMMANDS)
    def test_stable_runs_replicate_every_command_everywhere(self, seed, raw):
        n = 4
        scenario = stable_scenario(n, params=PARAMS, seed=seed, max_time=200.0)
        schedule = build_schedule(n, raw, list(range(n)))
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere
        assert result.outcome.replicas_agree
