"""Backend-conformance suite for `repro.results.store` (PR 4).

Every test in :class:`TestConformance` runs against all three backends
through one fixture, which *is* the acceptance requirement: MemoryStore,
JsonlStore, and SqliteStore pass one shared suite.  Backend-specific
durability details (atomic index, stale-index rescue, reopen) follow.
"""

import json
import os

import pytest

from helpers import make_run_record
from repro.errors import ResultStoreError
from repro.harness.tables import ExperimentTable
from repro.results import (
    JsonlStore,
    MemoryStore,
    SqliteStore,
    diff_aggregates,
    export_csv,
    export_json,
    lag_aggregates,
    open_store,
    result_set_of,
)

BACKENDS = ("memory", "jsonl", "sqlite")


@pytest.fixture(params=BACKENDS)
def store_factory(request, tmp_path):
    """Opens (and reopens) one named store of the parametrized backend."""

    def make(name="conformance"):
        if request.param == "memory":
            return MemoryStore()
        if request.param == "jsonl":
            return JsonlStore(tmp_path / f"{name}.jsonl")
        return SqliteStore(tmp_path / f"{name}.sqlite")

    make.backend = request.param
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
    """The shared contract: identical behaviour across every backend."""

    def test_empty_store(self, store_factory):
        store = store_factory()
        assert len(store) == 0
        assert store.keys() == []
        assert list(store.records()) == []
        assert store.get("missing") is None
        assert "missing" not in store

    def test_put_get_roundtrip(self, store_factory):
        store = store_factory()
        records = seed_records(store)
        for record in records:
            assert store.get(record.key) == record
            assert record.key in store
        assert len(store) == len(records)

    def test_keys_keep_insertion_order(self, store_factory):
        store = store_factory()
        records = seed_records(store)
        assert store.keys() == [record.key for record in records]
        assert [r.key for r in store.records()] == [record.key for record in records]

    def test_overwrite_is_last_write_wins(self, store_factory):
        store = store_factory()
        seed_records(store)
        replacement = make_run_record(protocol="modified-paxos",
                                      workload="partitioned-chaos",
                                      n=3, seed=1, lag=9.0, key="k/mp/chaos/1")
        store.put(replacement)
        assert len(store) == 4
        assert store.get("k/mp/chaos/1") == replacement
        # Overwriting must not disturb iteration order.
        assert store.keys()[0] == "k/mp/chaos/1"

    def test_query_records_by_protocol_and_workload(self, store_factory):
        store = store_factory()
        seed_records(store)
        assert len(store.query_records(protocol="modified-paxos")) == 3
        assert len(store.query_records(workload="partitioned-chaos")) == 3
        both = store.query_records(protocol="modified-paxos",
                                   workload="partitioned-chaos")
        assert [record.key for record in both] == ["k/mp/chaos/1", "k/mp/chaos/2"]

    def test_query_by_tags_and_predicate(self, store_factory):
        store = store_factory()
        seed_records(store)
        assert len(store.query_records(seed=2)) == 1
        heavy = store.query_records(where=lambda r: (r.lag_delta or 0.0) > 2.5)
        assert sorted(record.key for record in heavy) == ["k/mp/chaos/2", "k/tp/chaos/1"]

    def test_query_returns_live_result_set(self, store_factory):
        """Stored data flows straight into the existing table/stats layers."""
        store = store_factory()
        seed_records(store)
        results = store.query(protocol="modified-paxos", workload="partitioned-chaos")
        assert len(results) == 2
        assert results.tag_values("seed") == [1, 2]
        table = ExperimentTable.from_result_set(
            results,
            experiment="EX", title="stored", group=("n",),
            columns={"runs": len},
        )
        assert [row["n"] for row in table.rows] == [3, 5]

    def test_context_manager_flushes(self, store_factory):
        with store_factory("ctx") as store:
            seed_records(store, count=2)
        reopened = store_factory("ctx")
        if store_factory.backend != "memory":  # memory dies with the object
            assert len(reopened) == 2


class TestJsonlDurability:
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
        assert "late/arrival" in reopened

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
        assert "torn/one" not in reopened
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
        """Sharded campaigns append to one log; no flush may hide a shard."""
        path = tmp_path / "shared.jsonl"
        writer_a = JsonlStore(path)
        writer_b = JsonlStore(path)
        writer_a.put(make_run_record(key="shard-a/1"))
        writer_b.put(make_run_record(key="shard-b/1"))
        writer_a.put(make_run_record(key="shard-a/2"))
        # A flushes last knowing nothing of B's record; its index must not
        # claim to cover the whole file while omitting shard-b/1.
        writer_b.flush()
        writer_a.flush()
        reopened = JsonlStore(path)
        assert sorted(reopened.keys()) == ["shard-a/1", "shard-a/2", "shard-b/1"]
        # The rescan also taught writer A about B's record.
        assert "shard-b/1" in writer_a

    def test_appends_are_durable_before_flush(self, tmp_path):
        """A killed process loses at most the index, never a written record."""
        path = tmp_path / "runs.jsonl"
        store = JsonlStore(path)
        record = make_run_record(key="durable/now")
        store.put(record)
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] == "durable/now"


class TestSqlite:
    def test_reopen_preserves_records_and_order(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = SqliteStore(path)
        records = seed_records(store)
        store.close()
        reopened = SqliteStore(path)
        assert reopened.keys() == [record.key for record in records]
        assert reopened.get(records[0].key) == records[0]
        reopened.close()

    def test_sql_prefilter_matches_generic_query(self, tmp_path):
        store = SqliteStore(tmp_path / "runs.sqlite")
        seed_records(store)
        via_sql = store.query_records(protocol="modified-paxos")
        via_scan = [r for r in store.records() if r.protocol == "modified-paxos"]
        assert via_sql == via_scan
        store.close()


class TestOpenStore:
    def test_suffix_dispatch(self, tmp_path):
        assert isinstance(open_store("memory"), MemoryStore)
        assert isinstance(open_store(":memory:"), MemoryStore)
        assert isinstance(open_store(tmp_path / "a.jsonl"), JsonlStore)
        for suffix in (".sqlite", ".sqlite3", ".db"):
            store = open_store(tmp_path / f"a{suffix}")
            assert isinstance(store, SqliteStore)
            store.close()

    def test_prefix_overrides_suffix(self, tmp_path):
        store = open_store(f"jsonl:{tmp_path / 'no-suffix.log'}")
        assert isinstance(store, JsonlStore)
        sqlite_store = open_store(f"sqlite:{tmp_path / 'no-suffix.data'}")
        assert isinstance(sqlite_store, SqliteStore)
        sqlite_store.close()

    def test_store_instance_passes_through(self):
        store = MemoryStore()
        assert open_store(store) is store

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ResultStoreError, match="backend"):
            open_store(tmp_path / "runs.txt")


class TestQueryHelpers:
    def test_lag_aggregates_group_by_protocol_workload(self):
        store = MemoryStore()
        seed_records(store)
        aggregates = lag_aggregates(store.records())
        chaos = aggregates[("modified-paxos", "partitioned-chaos")]
        assert chaos.runs == 2
        assert chaos.mean_lag_delta == pytest.approx(2.5)
        assert chaos.max_lag_delta == pytest.approx(3.0)

    def test_diff_aggregates_reports_both_sides(self):
        a, b = MemoryStore(), MemoryStore()
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

    def test_export_csv_and_json(self):
        store = MemoryStore()
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
