"""Round-trip and content-key tests for `repro.results.record` (PR 4).

The contract under test: every run the harness can produce freezes into a
:class:`RunRecord` that (a) survives ``from_dict(to_dict(r)) == r`` exactly,
(b) rebuilds the executor's outcome verbatim, and (c) sits under a content
key that is a pure function of the declarative task — identical across
processes and interpreter invocations.
"""

import json
import subprocess
import sys

import pytest

from helpers import make_params, make_run_record
from repro.consensus.values import RunOutcome
from repro.errors import ResultSchemaError
from repro.harness.executors import RunTask, execute_task
from repro.results.record import (
    SCHEMA_VERSION,
    RunRecord,
    content_key_for_task,
    task_fingerprint,
)
from repro.workloads.registry import WORKLOADS

PARAMS = make_params()

# Workloads that need a specific protocol to exercise their scenario.
PROTOCOL_FOR = {
    "coordinator-crash": "rotating-coordinator",
    "obsolete-ballots": "traditional-paxos",
}

# The generic workload runs an inline spec; every other workload writes its own.
INLINE_ENVIRONMENT = {"adversary": {"kind": "benign"}}

# Extra kwargs needed for workloads whose defaults do not apply at n=5.
EXTRA_KWARGS = {
    "environment": {"env": INLINE_ENVIRONMENT},
}


def workload_task(workload: str, **overrides) -> RunTask:
    kwargs = {"n": 5, "seed": 1, "params": PARAMS, **EXTRA_KWARGS.get(workload, {})}
    kwargs.update(overrides)
    return RunTask(
        protocol=PROTOCOL_FOR.get(workload, "modified-paxos"),
        workload=workload,
        workload_kwargs=kwargs,
        tags={"suite": "round-trip", "seed": kwargs["seed"]},
    )


class TestRoundTripEveryWorkload:
    """from_dict(to_dict(r)) == r for one real run of every registered workload."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workload_record_round_trips(self, workload):
        task = workload_task(workload)
        outcome = execute_task(task)
        record = RunRecord.from_task(task, outcome)

        assert RunRecord.from_dict(record.to_dict()) == record
        assert RunRecord.from_json(record.to_json()) == record
        # The dict form must be pure JSON: a serialize/parse cycle is identity.
        assert json.loads(json.dumps(record.to_dict())) == record.to_dict()

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workload_outcome_rebuilds_verbatim(self, workload):
        task = workload_task(workload)
        outcome = execute_task(task)
        record = RunRecord.from_task(task, outcome)
        assert record.to_outcome() == outcome

    def test_every_workload_is_covered(self):
        # The registry drives the parametrization above; make sure it is not empty
        # and the protocol map only names real workloads.
        names = sorted(WORKLOADS)
        assert len(names) >= 10
        assert set(PROTOCOL_FOR) <= set(names)


class TestRoundTripEveryEnvironment:
    """Every workload's environment spec, run through the generic workload."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_environment_record_round_trips(self, workload):
        if workload == "environment":
            environment = INLINE_ENVIRONMENT
        else:
            environment = WORKLOADS.create(workload, n=5, params=PARAMS).environment.to_dict()
        task = workload_task("environment", env=environment)
        outcome = execute_task(task)
        record = RunRecord.from_task(task, outcome)

        assert RunRecord.from_dict(record.to_dict()) == record
        assert record.to_outcome() == outcome
        # The resolved environment travels inside the record.
        assert record.environment == outcome.extra["environment"]


class TestContentKey:
    def test_key_is_deterministic_and_readable(self):
        task = workload_task("partitioned-chaos", ts=10.0)
        key = content_key_for_task(task)
        assert key == content_key_for_task(task)
        assert key.startswith("modified-paxos/partitioned-chaos/")
        assert key.endswith("/n5-ts10.0-d1.0-s1")

    def test_key_renders_ts_exactly(self):
        """'%g'-style 6-digit rendering would collide these two tasks."""
        close_a = workload_task("partitioned-chaos", ts=123456.7)
        close_b = workload_task("partitioned-chaos", ts=123456.8)
        assert content_key_for_task(close_a) != content_key_for_task(close_b)

    def test_key_distinguishes_every_identity_component(self):
        base = workload_task("partitioned-chaos", ts=10.0)
        variants = [
            workload_task("partitioned-chaos", ts=10.0, seed=2),
            workload_task("partitioned-chaos", ts=10.0, n=7),
            workload_task("partitioned-chaos", ts=12.0),
            workload_task("lossy-chaos", ts=10.0),
            RunTask(protocol="traditional-paxos", workload="partitioned-chaos",
                    workload_kwargs=dict(base.workload_kwargs)),
            # Same n/ts/delta/seed but different non-key kwargs must still differ
            # (via the env-hash component).
            workload_task("partitioned-chaos", ts=10.0,
                          params=PARAMS.with_epsilon(2.0)),
        ]
        keys = {content_key_for_task(task) for task in variants}
        assert content_key_for_task(base) not in keys
        assert len(keys) == len(variants)

    def test_same_family_shares_env_hash(self):
        key_a = content_key_for_task(workload_task("partitioned-chaos", ts=10.0, n=3))
        key_b = content_key_for_task(workload_task("partitioned-chaos", ts=10.0, n=9, seed=4))
        assert key_a.split("/")[2] == key_b.split("/")[2]

    def test_key_stable_across_processes(self):
        """The content key must not depend on interpreter state (PYTHONHASHSEED)."""
        task = workload_task("partitioned-chaos", ts=10.0)
        script = (
            "from repro.harness.executors import RunTask\n"
            "from repro.params import TimingParams\n"
            "from repro.results.record import content_key_for_task\n"
            "task = RunTask(protocol='modified-paxos', workload='partitioned-chaos',\n"
            "    workload_kwargs={'n': 5, 'seed': 1,\n"
            "        'params': TimingParams(delta=1.0, rho=0.0, epsilon=0.5), 'ts': 10.0},\n"
            "    tags={'suite': 'round-trip', 'seed': 1})\n"
            "print(content_key_for_task(task))\n"
        )
        import os

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONHASHSEED"] = "12345"
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert child.stdout.strip() == content_key_for_task(task)

    def test_fingerprint_embeds_schema_version(self):
        assert task_fingerprint(workload_task("stable"))["schema"] == SCHEMA_VERSION

    def test_run_until_decided_changes_the_key(self):
        """Stop-at-decision vs run-to-horizon runs must never share a cache entry."""
        base = workload_task("partitioned-chaos", ts=10.0)
        horizon = RunTask(protocol=base.protocol, workload=base.workload,
                          workload_kwargs=dict(base.workload_kwargs),
                          tags=dict(base.tags), run_until_decided=False)
        assert content_key_for_task(base) != content_key_for_task(horizon)

    def test_enforcement_flags_do_not_change_the_key(self):
        base = workload_task("partitioned-chaos", ts=10.0)
        lenient = RunTask(protocol=base.protocol, workload=base.workload,
                          workload_kwargs=dict(base.workload_kwargs),
                          tags=dict(base.tags), enforce_safety=False,
                          enforce_invariants=False)
        assert content_key_for_task(base) == content_key_for_task(lenient)

    def test_unserializable_task_argument_rejected(self):
        task = RunTask(
            protocol="modified-paxos", workload="partitioned-chaos",
            workload_kwargs={"n": 3, "seed": 1, "params": PARAMS, "hook": object()},
        )
        with pytest.raises(ResultSchemaError, match="hook"):
            content_key_for_task(task)


class TestExtraValidation:
    """Satellite: non-JSON-safe `extra` values fail loudly, naming their keys."""

    def outcome_with_extra(self, extra) -> RunOutcome:
        return RunOutcome(protocol="modified-paxos", n=3, ts=10.0, delta=1.0,
                          seed=1, extra=extra)

    def test_offending_keys_are_named(self):
        outcome = self.outcome_with_extra(
            {"fine": 1.0, "weird": object(), "also_bad": {1: "int-key"}}
        )
        with pytest.raises(ResultSchemaError) as excinfo:
            RunRecord.from_outcome(outcome, workload="partitioned-chaos", key="k")
        message = str(excinfo.value)
        assert "also_bad" in message and "weird" in message
        assert "fine" not in message

    def test_codec_keys_are_exempt(self):
        outcome = self.outcome_with_extra(
            {"restart_events": [(3.0, 1)], "restart_lags": {1: 2.0},
             "max_lag_after_ts": 1.5}
        )
        record = RunRecord.from_outcome(outcome, workload="restarts", key="k")
        rebuilt = record.to_outcome()
        assert rebuilt.extra["restart_events"] == [(3.0, 1)]
        assert rebuilt.extra["restart_lags"] == {1: 2.0}

    def test_non_finite_floats_rejected(self):
        outcome = self.outcome_with_extra({"lag": float("nan")})
        with pytest.raises(ResultSchemaError, match="lag"):
            RunRecord.from_outcome(outcome, workload="stable", key="k")

    def test_tuple_consensus_values_rejected_not_coerced(self):
        """A tuple value would come back as a list; reject it at record time."""
        from repro.consensus.values import DecisionOutcome

        outcome = RunOutcome(
            protocol="modified-paxos", n=3, ts=10.0, delta=1.0, seed=1,
            decisions=[DecisionOutcome(pid=0, value=(1, 2), time=11.0,
                                       after_stability=1.0)],
            proposals={1: (3, 4)},
        )
        with pytest.raises(ResultSchemaError) as excinfo:
            RunRecord.from_outcome(outcome, workload="stable", key="k")
        message = str(excinfo.value)
        assert "p0" in message and "p1" in message


class TestSchemaVersioning:
    def test_metrics_digest_present(self):
        record = make_run_record(lag=2.5)
        assert record.metrics["max_lag_after_ts"] == 2.5
        assert record.metrics["lag_delta"] == 2.5
        assert record.metrics["all_decided"] is True
        assert record.lag_delta == 2.5

    def test_current_version_stamped(self):
        assert make_run_record().schema_version == SCHEMA_VERSION
        assert make_run_record().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_newer_schema_rejected(self):
        data = make_run_record().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ResultSchemaError, match="newer"):
            RunRecord.from_dict(data)

    def test_missing_schema_rejected(self):
        data = make_run_record().to_dict()
        del data["schema_version"]
        with pytest.raises(ResultSchemaError, match="schema_version"):
            RunRecord.from_dict(data)
        # ``true`` is an int to isinstance() but not a schema version; read
        # as 1 it would be written back as ``true`` and break the round trip.
        with pytest.raises(ResultSchemaError, match="schema_version"):
            RunRecord.from_dict({**data, "schema_version": True})

    def test_malformed_record_rejected(self):
        with pytest.raises(ResultSchemaError):
            RunRecord.from_dict({"schema_version": 1, "key": "only-a-key"})
        with pytest.raises(ResultSchemaError):
            RunRecord.from_json("not json at all {")
