"""A store written by an earlier release still decodes, keys and resumes unchanged.

``tests/data/store_v1.jsonl`` (with its sidecar index) was written by commit
46fa016, before tasks executed themselves and before the two record classes
shared a base.  It holds the three runs declared below: two single-decree
runs (``stable`` and ``partitioned-chaos``, written by ``run_experiment``)
and one ``smr-stable`` run (written by ``run_smr_tasks``).  No other test
pins on-disk bytes or literal content keys, so this one catches a change to
either: a record must re-encode to the very line it was read from, the
producing tasks must still derive the stored keys, and resuming from the
store must execute nothing.  Stores no longer keep an index, so the
leftover ``.index.json`` beside the log must be neither read nor rewritten.
"""

import builtins
import shutil
from pathlib import Path

import pytest

from helpers import CountingExecutor
from repro.harness.executors import SmrTask
from repro.harness.experiment import ExperimentSpec, run_experiment, run_smr_tasks
from repro.results import store as store_module
from repro.results.store import JsonlStore
from repro.results.record import content_key_for_task, decode_record_json
from repro.smr.workload import ScheduleSpec

FIXTURE = Path(__file__).parent / "data" / "store_v1.jsonl"

SPECS = [
    ExperimentSpec(workload="stable", protocols=("modified-paxos",), seeds=(1,), base={"n": 3}),
    ExperimentSpec(workload="partitioned-chaos", protocols=("modified-paxos",), seeds=(2,),
                   base={"n": 5, "ts": 10.0}),
]
SMR_TASKS = [
    SmrTask(workload="smr-stable", workload_kwargs={"n": 3, "seed": 1},
            schedule=ScheduleSpec(num_commands=3, start=10.0, interval=1.0),
            tags={"case": "fixture"}),
]


def producing_tasks():
    return [task for spec in SPECS for task in spec.tasks()] + SMR_TASKS


@pytest.fixture()
def store_copy(tmp_path, monkeypatch):
    """A writable copy of the fixture store, its leftover index beside it.

    Records every file the store module opens, so a test can call
    ``check_index_untouched()`` after resuming from the copy.
    """
    target = tmp_path / FIXTURE.name
    index = tmp_path / (FIXTURE.name + ".index.json")
    shutil.copyfile(FIXTURE, target)
    shutil.copyfile(str(FIXTURE) + ".index.json", index)
    index_bytes = index.read_bytes()
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return builtins.open(file, *args, **kwargs)

    def check_index_untouched():
        assert str(target) in opened
        assert str(index) not in opened
        assert index.read_bytes() == index_bytes

    monkeypatch.setattr(store_module, "open", recording_open, raising=False)
    return target, check_index_untouched


def test_every_line_decodes_and_reencodes_byte_for_byte():
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    records = [decode_record_json(line) for line in lines]
    assert [record.kind for record in records] == ["run", "run", "smr"]
    for line, record in zip(lines, records):
        assert record.to_json() == line


def test_producing_tasks_derive_the_stored_keys():
    stored = JsonlStore(FIXTURE).keys()
    assert [content_key_for_task(task) for task in producing_tasks()] == stored


def test_run_experiment_resumes_without_executing(store_copy):
    path, check_index_untouched = store_copy
    counting = CountingExecutor()
    results = run_experiment(SPECS, store=str(path), resume=True, executor=counting)
    assert counting.executed == 0
    check_index_untouched()
    store = JsonlStore(path)
    assert [row.outcome for row in results] == [
        store.get(content_key_for_task(row.task)).to_outcome() for row in results
    ]
    assert [row.task.workload for row in results] == ["stable", "partitioned-chaos"]


def test_run_smr_tasks_resumes_without_executing(store_copy):
    path, check_index_untouched = store_copy
    counting = CountingExecutor()
    rows = run_smr_tasks(SMR_TASKS, store=str(path), resume=True, executor=counting)
    assert counting.executed == 0
    check_index_untouched()
    record = JsonlStore(path).get(content_key_for_task(SMR_TASKS[0]))
    assert [row.outcome for row in rows] == [record.to_outcome()]
    assert rows[0].outcome.all_decided


def test_fresh_runs_reproduce_the_stored_outcomes():
    store = JsonlStore(FIXTURE)
    for task in producing_tasks():
        assert task.execute() == store.get(content_key_for_task(task)).to_outcome()
