"""Tests for `repro.results.store`: the JSON-lines result store.

:class:`TestConformance` pins the keyed-map contract the harness and the
CLI rely on; the durability details (atomic index, stale-index rescue,
reopen, torn tails) follow.
"""

import json
import os

import pytest

from helpers import make_run_record
from repro.errors import ResultStoreError
from repro.harness.tables import ExperimentTable
from repro.results.query import diff_aggregates, export_csv, export_json, lag_aggregates, result_set_of
from repro.results.store import JsonlStore, open_store


READ_PATHS = ("live", "indexed", "rescanned")


@pytest.fixture(params=READ_PATHS)
def store_factory(request, tmp_path):
    """Opens one named store; ``make.reread`` hands it back through one read path.

    ``live`` reads through the instance that wrote the records, ``indexed``
    reopens the store from its flushed index, and ``rescanned`` reopens it
    with no index so the log itself is scanned.
    """

    def make(name="conformance"):
        return JsonlStore(tmp_path / f"{name}.jsonl")

    def reread(store):
        if request.param == "live":
            return store
        if request.param == "indexed":
            store.flush()
        elif os.path.exists(store.index_path):
            os.unlink(store.index_path)
        return JsonlStore(store.path)

    make.reread = reread
    return make


def seed_records(store, count=4):
    records = [
        make_run_record(protocol="modified-paxos", workload="partitioned-chaos",
                        n=3, seed=1, lag=2.0, key="k/mp/chaos/1"),
        make_run_record(protocol="modified-paxos", workload="stable",
                        n=3, seed=1, lag=1.0, key="k/mp/stable/1"),
        make_run_record(protocol="traditional-paxos", workload="partitioned-chaos",
                        n=3, seed=1, lag=6.0, key="k/tp/chaos/1"),
        make_run_record(protocol="modified-paxos", workload="partitioned-chaos",
                        n=5, seed=2, lag=3.0, key="k/mp/chaos/2"),
    ][:count]
    for record in records:
        store.put(record)
    return records


class TestConformance:
    """The keyed-map contract every caller relies on, through every read path."""

    def test_empty_store(self, store_factory):
        store = store_factory.reread(store_factory())
        assert len(store) == 0
        assert store.keys() == []
        assert list(store.records()) == []
        assert store.get("missing") is None

    def test_put_get_roundtrip(self, store_factory):
        store = store_factory()
        records = seed_records(store)
        store = store_factory.reread(store)
        for record in records:
            assert store.get(record.key) == record
        assert len(store) == len(records)

    def test_keys_keep_insertion_order(self, store_factory):
        store = store_factory()
        records = seed_records(store)
        store = store_factory.reread(store)
        assert store.keys() == [record.key for record in records]
        assert [r.key for r in store.records()] == [record.key for record in records]

    def test_records_read_back_equal(self, store_factory):
        store = store_factory()
        records = seed_records(store)
        store = store_factory.reread(store)
        assert list(store.records()) == records

    def test_overwrite_is_last_write_wins(self, store_factory):
        store = store_factory()
        seed_records(store)
        replacement = make_run_record(protocol="modified-paxos",
                                      workload="partitioned-chaos",
                                      n=3, seed=1, lag=9.0, key="k/mp/chaos/1")
        store.put(replacement)
        store = store_factory.reread(store)
        assert len(store) == 4
        assert store.get("k/mp/chaos/1") == replacement
        # Overwriting must not disturb iteration order.
        assert store.keys()[0] == "k/mp/chaos/1"

    def test_query_records_by_protocol_and_workload(self, store_factory):
        store = store_factory()
        seed_records(store)
        store = store_factory.reread(store)
        assert len(store.query_records(protocol="modified-paxos")) == 3
        assert len(store.query_records(workload="partitioned-chaos")) == 3
        both = store.query_records(protocol="modified-paxos",
                                   workload="partitioned-chaos")
        assert [record.key for record in both] == ["k/mp/chaos/1", "k/mp/chaos/2"]

    def test_query_by_tags_and_predicate(self, store_factory):
        store = store_factory()
        seed_records(store)
        store = store_factory.reread(store)
        assert len(store.query_records(tags={"seed": 2})) == 1
        heavy = store.query_records(where=lambda r: (r.lag_delta or 0.0) > 2.5)
        assert sorted(record.key for record in heavy) == ["k/mp/chaos/2", "k/tp/chaos/1"]

    def test_query_returns_live_result_set(self, store_factory):
        """Stored data flows straight into the existing table/stats layers."""
        store = store_factory()
        seed_records(store)
        store = store_factory.reread(store)
        results = store.query(protocol="modified-paxos", workload="partitioned-chaos")
        assert len(results) == 2
        assert [row.tag("seed") for row in results] == [1, 2]
        table = ExperimentTable.from_result_set(
            results,
            experiment="EX", title="stored", group=("n",),
            columns={"runs": len},
        )
        assert [row["n"] for row in table.rows] == [3, 5]


class TestJsonlDurability:
    def test_context_manager_flushes(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        with JsonlStore(path) as store:
            seed_records(store, count=2)
        assert os.path.exists(store.index_path)
        assert len(JsonlStore(path)) == 2

    def test_reopen_without_flush_rescans_log(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = JsonlStore(path)
        records = seed_records(store)  # no flush(): index never written
        assert not os.path.exists(store.index_path)
        reopened = JsonlStore(path)
        assert reopened.keys() == [record.key for record in records]

    def test_flush_writes_matching_index(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = JsonlStore(path)
        seed_records(store)
        store.flush()
        index = json.loads((tmp_path / "runs.jsonl.index.json").read_text())
        assert index["size"] == os.path.getsize(path)
        assert set(index["offsets"]) == set(store.keys())

    def test_stale_index_triggers_rescan(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = JsonlStore(path)
        seed_records(store, count=2)
        store.flush()
        # Appends after the flush make the index stale; reopen must rescan.
        store.put(make_run_record(key="late/arrival", seed=9))
        reopened = JsonlStore(path)
        assert "late/arrival" in reopened.keys()

    def test_corrupt_index_triggers_rescan(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = JsonlStore(path)
        records = seed_records(store)
        store.flush()
        (tmp_path / "runs.jsonl.index.json").write_text("{ not json")
        reopened = JsonlStore(path)
        assert len(reopened) == len(records)

    def test_torn_final_line_is_truncated_on_reopen(self, tmp_path):
        """A put() killed mid-write must not make the store unreadable."""
        path = tmp_path / "runs.jsonl"
        store = JsonlStore(path)
        records = seed_records(store, count=2)
        store.flush()
        # Simulate a kill mid-put: a partial record with no trailing newline
        # (the index is now stale too, so reopen goes through a rescan).
        with open(path, "ab") as handle:
            handle.write(b'{"schema_version": 1, "key": "torn/one", "proto')
        reopened = JsonlStore(path)
        assert reopened.keys() == [record.key for record in records]
        assert "torn/one" not in reopened.keys()
        # The torn tail is gone, so new appends start on a clean line.
        late = make_run_record(key="after/the/crash")
        reopened.put(late)
        assert JsonlStore(path).get("after/the/crash") == late

    def test_corrupt_complete_line_still_raises(self, tmp_path):
        """Only a torn *final* line is forgiven; mid-file corruption is loud."""
        from repro.errors import ResultSchemaError

        path = tmp_path / "runs.jsonl"
        JsonlStore(path).put(make_run_record(key="good/one"))
        raw = path.read_bytes()
        path.write_bytes(b'{"not": "a record"}\n' + raw)
        with pytest.raises(ResultSchemaError):
            JsonlStore(path)

    def test_interleaved_writers_are_not_masked_by_the_index(self, tmp_path):
        """Two processes appending to one store; no flush may hide the other's records."""
        path = tmp_path / "shared.jsonl"
        writer_a = JsonlStore(path)
        writer_b = JsonlStore(path)
        writer_a.put(make_run_record(key="writer-a/1"))
        writer_b.put(make_run_record(key="writer-b/1"))
        writer_a.put(make_run_record(key="writer-a/2"))
        # A flushes last knowing nothing of B's record; its index must not
        # claim to cover the whole file while omitting writer-b/1.
        writer_b.flush()
        writer_a.flush()
        reopened = JsonlStore(path)
        assert sorted(reopened.keys()) == ["writer-a/1", "writer-a/2", "writer-b/1"]
        # The rescan also taught writer A about B's record.
        assert "writer-b/1" in writer_a.keys()

    def test_appends_are_durable_before_flush(self, tmp_path):
        """A killed process loses at most the index, never a written record."""
        path = tmp_path / "runs.jsonl"
        store = JsonlStore(path)
        record = make_run_record(key="durable/now")
        store.put(record)
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] == "durable/now"

    def test_index_is_as_readable_as_the_log(self, tmp_path):
        """mkstemp's 0600 must not lock other readers out of the index."""
        old_umask = os.umask(0o022)
        try:
            store = JsonlStore(tmp_path / "runs.jsonl")
            seed_records(store)
            store.flush()
        finally:
            os.umask(old_umask)
        log_mode = os.stat(store.path).st_mode & 0o777
        assert log_mode == 0o644
        assert os.stat(store.index_path).st_mode & 0o777 == log_mode


class TestOpenStore:
    def test_jsonl_path_opens_a_jsonl_store(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.jsonl"), JsonlStore)
        assert isinstance(open_store(str(tmp_path / "b.jsonl")), JsonlStore)

    def test_store_instance_passes_through(self, tmp_path):
        store = JsonlStore(tmp_path / "runs.jsonl")
        assert open_store(store) is store

    @pytest.mark.parametrize("spec", ["memory", ":memory:", "new/runs.sqlite",
                                      "new/runs.sqlite3", "new/runs.db",
                                      "jsonl:new/runs.log", "sqlite:new/runs.data"])
    def test_non_jsonl_path_rejected_before_touching_disk(self, tmp_path, monkeypatch, spec):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ResultStoreError, match=r"\*\.jsonl path"):
            open_store(spec)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ResultStoreError, match="backend"):
            open_store(tmp_path / "runs.txt")


class TestQueryHelpers:
    def test_lag_aggregates_group_by_protocol_workload(self, tmp_path):
        store = JsonlStore(tmp_path / "runs.jsonl")
        seed_records(store)
        aggregates = lag_aggregates(store.records())
        chaos = aggregates[("modified-paxos", "partitioned-chaos")]
        assert chaos.runs == 2
        assert chaos.mean_lag_delta == pytest.approx(2.5)
        assert chaos.max_lag_delta == pytest.approx(3.0)

    def test_diff_aggregates_reports_both_sides(self, tmp_path):
        a, b = JsonlStore(tmp_path / "a.jsonl"), JsonlStore(tmp_path / "b.jsonl")
        seed_records(a)
        b.put(make_run_record(protocol="modified-paxos", workload="partitioned-chaos",
                              n=3, seed=1, lag=4.0, key="k/mp/chaos/1"))
        rows = diff_aggregates(a.records(), b.records())
        chaos = next(r for r in rows
                     if (r["protocol"], r["workload"]) == ("modified-paxos",
                                                           "partitioned-chaos"))
        assert chaos["runs_a"] == 2 and chaos["runs_b"] == 1
        assert chaos["max_lag_diff"] == pytest.approx(4.0 - 3.0)
        # Groups present on only one side still appear, with None diffs.
        stable = next(r for r in rows if r["workload"] == "stable")
        assert stable["runs_b"] == 0 and stable["max_lag_diff"] is None

    def test_export_csv_and_json(self, tmp_path):
        store = JsonlStore(tmp_path / "runs.jsonl")
        records = seed_records(store)
        csv_text = export_csv(store.records())
        lines = csv_text.strip().splitlines()
        assert len(lines) == len(records) + 1
        assert lines[0].startswith("key,protocol,workload")
        parsed = json.loads(export_json(store.records()))
        assert [entry["key"] for entry in parsed] == [r.key for r in records]

    def test_result_set_of_preserves_tags(self):
        rows = result_set_of([make_run_record(case="x", seed=7, key="k/one")])
        assert rows.rows[0].tag("case") == "x"
        assert rows.rows[0].outcome.seed == 7
