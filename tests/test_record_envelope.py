"""The record envelope: one base class frames every record kind.

A record holds its run's outcome dataclass as ``record.outcome``; the
outcome's declared fields drive encoding and decoding.  These tests pin the
two guarantees that follow for every kind: ``to_outcome()`` hands out a copy
the caller may mutate freely, and no outcome field is left out of the stored
form (a dropped field would make a resumed run differ from a fresh one).
"""

import dataclasses

import pytest

from helpers import make_params
from repro.harness.executors import RunTask, SmrTask
from repro.results.record import RecordBase, RunRecord, record_for_task
from repro.results.smr_record import SmrRecord
from repro.smr.workload import ScheduleSpec

PARAMS = make_params()


def run_record() -> RunRecord:
    task = RunTask(protocol="modified-paxos", workload="restarts",
                   workload_kwargs={"n": 3, "seed": 1, "params": PARAMS})
    return record_for_task(task, task.execute())


def smr_record() -> SmrRecord:
    task = SmrTask(workload="smr-stable", workload_kwargs={"n": 3, "seed": 1, "params": PARAMS},
                   schedule=ScheduleSpec(num_commands=3, start=12.0, interval=0.7))
    return record_for_task(task, task.execute())


@pytest.fixture(scope="module")
def records():
    return {"run": run_record(), "smr": smr_record()}


def test_every_kind_is_in_the_kind_table():
    assert RecordBase.kinds == {"run": RunRecord, "smr": SmrRecord}


@pytest.mark.parametrize("kind", ["run", "smr"])
def test_every_outcome_field_is_stored(records, kind):
    record = records[kind]
    data = record.to_dict()
    missing = [item.name for item in dataclasses.fields(record.outcome_type)
               if item.name not in data]
    assert missing == []


def test_to_outcome_is_a_fresh_run_outcome(records):
    record = records["run"]
    before = record.to_json()
    outcome = record.to_outcome()
    assert outcome == record.outcome and outcome is not record.outcome
    assert outcome.extra["restart_events"]  # the codec-handled extras are copied too
    outcome.extra["injected"] = 1
    outcome.extra["restart_events"].append((99.0, 0))
    outcome.extra["restart_lags"][0] = -1.0
    outcome.extra["environment"]["name"] = "mutated"
    outcome.decisions.append(outcome.decisions[0])
    outcome.proposals[0] = "mutated"
    outcome.undecided_pids.append(7)
    assert record.to_json() == before
    assert record.to_outcome() != outcome


def test_to_outcome_is_a_fresh_smr_outcome(records):
    record = records["smr"]
    before = record.to_json()
    outcome = record.to_outcome()
    assert outcome == record.outcome and outcome is not record.outcome
    command = next(iter(outcome.commands.values()))
    command.learned_times[0] = -1.0
    outcome.commands["injected"] = command
    outcome.extra["injected"] = 1
    outcome.extra["environment"]["name"] = "mutated"
    outcome.prefix_lengths[0] = -1
    outcome.digests[0] = "mutated"
    assert record.to_json() == before
    assert record.to_outcome() != outcome
