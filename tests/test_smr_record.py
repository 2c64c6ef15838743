"""Round-trip, content-key, and store tests for SMR records (PR 5).

The contract mirrors `tests/test_results_record.py` for the multi-decree
family: every SMR run the harness can produce freezes into an
:class:`SmrRecord` that (a) survives ``from_dict(to_dict(r)) == r`` exactly,
(b) rebuilds the executor's :class:`SmrOutcome` verbatim, and (c) sits under
a content key that is a pure function of the declarative task — identical
across processes and interpreter invocations — while the result store
holds SMR and single-decree records side by side.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.errors import ResultSchemaError
from repro.harness.executors import RunTask, SmrTask, execute_task
from repro.results.record import (
    SCHEMA_VERSION,
    RunRecord,
    content_key_for_task,
    decode_record_dict,
    decode_record_json,
    record_for_task,
    task_fingerprint,
)
from repro.results.smr_record import SmrRecord
from repro.results.store import JsonlStore
from repro.smr.state_machine import MACHINE
from repro.smr.workload import ScheduleSpec
from repro.workloads.smr import SMR_WORKLOADS

from helpers import make_params

PARAMS = make_params()


def smr_task(workload: str = "smr-stable", seed: int = 1, **overrides) -> SmrTask:
    kwargs = {"n": 3, "seed": seed, "params": PARAMS}
    kwargs.update(overrides)
    return SmrTask(
        workload=workload,
        workload_kwargs=kwargs,
        schedule=ScheduleSpec(num_commands=3, start=12.0, interval=0.7),
        tags={"suite": "smr-round-trip", "seed": seed},
    )


class TestRoundTripEverySmrWorkload:
    @pytest.mark.parametrize("workload", SMR_WORKLOADS)
    def test_record_round_trips(self, workload):
        task = smr_task(workload)
        outcome = task.execute()
        record = SmrRecord.from_task(task, outcome)

        assert SmrRecord.from_dict(record.to_dict()) == record
        assert decode_record_json(record.to_json()) == record
        # The dict form must be pure JSON: a serialize/parse cycle is identity.
        assert json.loads(json.dumps(record.to_dict())) == record.to_dict()

    @pytest.mark.parametrize("workload", SMR_WORKLOADS)
    def test_outcome_rebuilds_verbatim(self, workload):
        task = smr_task(workload)
        outcome = task.execute()
        record = SmrRecord.from_task(task, outcome)
        assert record.to_outcome() == outcome

    def test_environment_travels_inside_the_record(self):
        task = smr_task("smr-gray-partition")
        outcome = task.execute()
        record = SmrRecord.from_task(task, outcome)
        assert record.environment == outcome.extra["environment"]

    def test_metrics_digest_matches_outcome(self):
        task = smr_task()
        outcome = task.execute()
        record = SmrRecord.from_task(task, outcome)
        assert record.metrics["worst_global_latency"] == outcome.worst_global_latency()
        assert record.metrics["all_learned"] == outcome.all_decided
        assert record.metrics["replicas_agree"] == outcome.replicas_agree
        assert record.lag_delta == pytest.approx(
            outcome.worst_global_latency() / outcome.delta
        )


class TestSmrContentKey:
    def test_key_is_readable_and_protocol_prefixed(self):
        key = content_key_for_task(smr_task())
        assert key.startswith("multi-paxos-smr/smr-stable/")
        assert key.endswith("-s1")
        assert "n3" in key

    def test_schedule_changes_the_key(self):
        base = smr_task()
        other = SmrTask(
            workload=base.workload,
            workload_kwargs=dict(base.workload_kwargs),
            schedule=ScheduleSpec(num_commands=4, start=12.0, interval=0.7),
            tags=dict(base.tags),
        )
        assert content_key_for_task(base) != content_key_for_task(other)

    def test_smr_and_run_tasks_never_collide(self):
        """Same workload kwargs, different task kinds → different keys."""
        run = RunTask(protocol="multi-paxos-smr", workload="smr-stable",
                      workload_kwargs={"n": 3, "seed": 1, "params": PARAMS})
        assert content_key_for_task(run) != content_key_for_task(smr_task())

    def test_fingerprint_marks_kind_and_schema(self):
        fingerprint = task_fingerprint(smr_task())
        assert fingerprint["kind"] == "smr"
        assert fingerprint["schema"] == SCHEMA_VERSION
        assert fingerprint["schedule"]["num_commands"] == 3

    def test_fingerprint_names_the_key_value_store(self):
        """Stored SMR keys were made with ``"kv"``; renaming it would orphan them."""
        assert MACHINE == "kv"
        assert task_fingerprint(smr_task())["machine"] == MACHINE

    def test_key_stable_across_processes(self):
        task = smr_task()
        script = (
            "from repro.harness.executors import SmrTask\n"
            "from repro.params import TimingParams\n"
            "from repro.results.record import content_key_for_task\n"
            "from repro.smr.workload import ScheduleSpec\n"
            "task = SmrTask(workload='smr-stable',\n"
            "    workload_kwargs={'n': 3, 'seed': 1,\n"
            f"        'params': TimingParams(delta={PARAMS.delta!r}, rho={PARAMS.rho!r}, "
            f"epsilon={PARAMS.epsilon!r})}},\n"
            "    schedule=ScheduleSpec(num_commands=3, start=12.0, interval=0.7),\n"
            "    tags={'suite': 'smr-round-trip', 'seed': 1})\n"
            "print(content_key_for_task(task))\n"
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONHASHSEED"] = "54321"
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert child.stdout.strip() == content_key_for_task(task)


class TestRecordDispatch:
    def test_record_for_task_picks_the_record_type(self):
        task = smr_task()
        outcome = task.execute()
        assert isinstance(record_for_task(task, outcome), SmrRecord)

        run = RunTask(protocol="modified-paxos", workload="stable",
                      workload_kwargs={"n": 3, "seed": 1, "params": PARAMS})
        assert isinstance(record_for_task(run, execute_task(run)), RunRecord)

    def test_decode_dispatches_on_kind(self):
        task = smr_task()
        record = record_for_task(task, task.execute())
        decoded = decode_record_json(record.to_json())
        assert isinstance(decoded, SmrRecord) and decoded == record

        run = RunTask(protocol="modified-paxos", workload="stable",
                      workload_kwargs={"n": 3, "seed": 1, "params": PARAMS})
        run_record = record_for_task(run, execute_task(run))
        assert isinstance(decode_record_json(run_record.to_json()), RunRecord)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ResultSchemaError, match="unknown record kind"):
            decode_record_dict({"kind": "mystery", "schema_version": 1})

    def test_newer_schema_version_rejected(self):
        task = smr_task()
        data = record_for_task(task, task.execute()).to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ResultSchemaError, match="newer"):
            decode_record_dict(data)


class TestRecordKindCheck:
    """Each record class decodes its own kind only, and names the kind it refuses."""

    @pytest.fixture(scope="class")
    def smr_data(self):
        task = smr_task()
        return record_for_task(task, task.execute()).to_dict()

    @pytest.fixture(scope="class")
    def run_data(self):
        run = RunTask(protocol="modified-paxos", workload="stable",
                      workload_kwargs={"n": 3, "seed": 1, "params": PARAMS})
        return record_for_task(run, execute_task(run)).to_dict()

    def test_run_record_refuses_an_smr_record(self, smr_data):
        with pytest.raises(ResultSchemaError, match="RunRecord .* kind 'smr'"):
            RunRecord.from_dict(smr_data)

    def test_smr_record_refuses_a_run_record(self, run_data):
        assert "kind" not in run_data  # single-decree records carry no marker
        with pytest.raises(ResultSchemaError, match="SmrRecord .* kind 'run'"):
            SmrRecord.from_dict(run_data)
        with pytest.raises(ResultSchemaError, match="kind 'run'"):
            SmrRecord.from_dict({**run_data, "kind": "run"})

    def test_run_record_accepts_a_missing_or_run_kind(self, run_data):
        record = RunRecord.from_dict(run_data)
        assert RunRecord.from_dict({**run_data, "kind": "run"}) == record

    @pytest.mark.parametrize("record_class", (RunRecord, SmrRecord))
    def test_unknown_kind_rejected_by_either_class(self, record_class, smr_data):
        with pytest.raises(ResultSchemaError, match="kind 'mystery'"):
            record_class.from_dict({**smr_data, "kind": "mystery"})


class TestMixedStores:
    """The store holds both record kinds side by side."""

    @pytest.fixture()
    def records(self):
        smr = smr_task()
        run = RunTask(protocol="modified-paxos", workload="stable",
                      workload_kwargs={"n": 3, "seed": 1, "params": PARAMS},
                      tags={"seed": 1})
        return [
            record_for_task(smr, smr.execute()),
            record_for_task(run, execute_task(run)),
        ]

    def test_put_get_roundtrip_both_kinds(self, tmp_path, records):
        store = JsonlStore(tmp_path / "mixed.jsonl")
        for record in records:
            store.put(record)
        store.flush()
        for record in records:
            assert store.get(record.key) == record
        assert list(store.records()) == records
        store.close()

    def test_reopen_recovers_smr_records(self, tmp_path, records):
        store = JsonlStore(tmp_path / "mixed.jsonl")
        for record in records:
            store.put(record)
        reopened = JsonlStore(tmp_path / "mixed.jsonl")
        assert sorted(reopened.keys()) == sorted(record.key for record in records)
        assert reopened.get(records[0].key) == records[0]

    def test_query_filters_smr_records(self, tmp_path, records):
        store = JsonlStore(tmp_path / "mixed.jsonl")
        for record in records:
            store.put(record)
        matched = store.query_records(protocol="multi-paxos-smr")
        assert [record.key for record in matched] == [records[0].key]
        by_workload = store.query_records(workload="smr-stable")
        assert len(by_workload) == 1
        store.close()

    def test_query_refuses_smr_records(self, tmp_path, records):
        """query() lifts run rows only; an SMR record raises instead of becoming a run row."""
        store = JsonlStore(tmp_path / "mixed.jsonl")
        for record in records:
            store.put(record)
        rows = store.query(protocol="modified-paxos")
        assert [(row.task.kind, row.task.protocol) for row in rows] == [("run", "modified-paxos")]
        with pytest.raises(ResultSchemaError, match=re.escape(records[0].key)) as excinfo:
            store.query()
        assert "query_records()" in str(excinfo.value)

    def test_lag_aggregates_include_smr_groups(self, records):
        from repro.results.query import lag_aggregates

        aggregates = lag_aggregates(records)
        assert ("multi-paxos-smr", "smr-stable") in aggregates
        smr_aggregate = aggregates[("multi-paxos-smr", "smr-stable")]
        assert smr_aggregate.runs == 1
        assert smr_aggregate.max_lag_delta == pytest.approx(records[0].lag_delta)

    def test_export_csv_covers_both_kinds(self, records):
        from repro.results.query import export_csv

        text = export_csv(records)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("multi-paxos-smr/")

    def test_render_record_report_dispatches(self, records):
        from repro.analysis.report import render_record_report

        smr_text = render_record_report(records[0])
        assert smr_text.startswith("smr record:")
        assert "commands" in smr_text
        run_text = render_record_report(records[1])
        assert run_text.startswith("run record:")
