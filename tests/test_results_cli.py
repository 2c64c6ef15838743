"""CLI tests for the `results` command group and `experiments --store/--resume`."""

import json
import sqlite3

import pytest

from helpers import make_run_record
from repro.cli import main
from repro.results.store import JsonlStore


@pytest.fixture
def store_path(tmp_path):
    """A small jsonl store with three records across two protocols."""
    store = JsonlStore(tmp_path / "runs.jsonl")
    store.put(make_run_record(protocol="modified-paxos", workload="partitioned-chaos",
                              n=3, seed=1, lag=2.0, key="k/mp/1"))
    store.put(make_run_record(protocol="modified-paxos", workload="partitioned-chaos",
                              n=5, seed=2, lag=3.0, key="k/mp/2"))
    store.put(make_run_record(protocol="traditional-paxos", workload="obsolete-ballots",
                              n=5, seed=1, lag=8.0, key="k/tp/1"))
    store.flush()
    return str(tmp_path / "runs.jsonl")


class TestResultsLs:
    def test_lists_every_record(self, store_path, capsys):
        assert main(["results", "ls", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "k/mp/1" in out and "k/tp/1" in out
        assert "3 records (jsonl)" in out

    def test_empty_store(self, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        assert main(["results", "ls", "--store", str(tmp_path / "empty.jsonl")]) == 0
        assert "store is empty" in capsys.readouterr().out

    def test_unknown_backend_suffix(self, tmp_path, capsys):
        (tmp_path / "runs.txt").write_text("")
        assert main(["results", "ls", "--store", str(tmp_path / "runs.txt")]) == 2
        assert "backend" in capsys.readouterr().out


class TestResultsMissingStore:
    """Reading a path that holds no store fails and creates nothing there."""

    @pytest.mark.parametrize("name", ["typo.jsonl", "typo.sqlite", "typo.db"])
    @pytest.mark.parametrize("command", [["ls"], ["show", "k/mp/1"], ["query"], ["export"]])
    def test_single_store_commands(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        assert main(["results", *command, "--store", str(path)]) == 2
        assert f"no store at {path}" in capsys.readouterr().out
        assert not path.exists()

    @pytest.mark.parametrize("missing_side", [0, 1])
    def test_diff(self, store_path, tmp_path, capsys, missing_side):
        missing = tmp_path / "typo.sqlite"
        stores = [store_path, str(missing)]
        if missing_side == 0:
            stores.reverse()
        assert main(["results", "diff", *stores]) == 2
        assert f"no store at {missing}" in capsys.readouterr().out
        assert not missing.exists()

    @pytest.mark.parametrize("name", ["old.sqlite", "old.sqlite3", "old.db"])
    def test_existing_sqlite_store_is_refused_untouched(self, tmp_path, capsys, name):
        path = tmp_path / name
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE records (key TEXT PRIMARY KEY, payload TEXT)")
        connection.execute("INSERT INTO records VALUES ('k/mp/1', '{}')")
        connection.commit()
        connection.close()
        before = path.read_bytes()
        assert main(["results", "ls", "--store", str(path)]) == 2
        assert "*.jsonl path" in capsys.readouterr().out
        assert path.read_bytes() == before
        assert not (tmp_path / f"{name}.index.json").exists()


class TestResultsShow:
    def test_report_rendering(self, store_path, capsys):
        assert main(["results", "show", "k/mp/1", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "run record: k/mp/1" in out
        assert "protocol=modified-paxos" in out
        assert "decisions" in out

    def test_json_rendering(self, store_path, capsys):
        assert main(["results", "show", "k/tp/1", "--store", store_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["key"] == "k/tp/1"
        assert data["schema_version"] == 1

    def test_missing_key(self, store_path, capsys):
        assert main(["results", "show", "nope", "--store", store_path]) == 1
        assert "no record" in capsys.readouterr().out


class TestResultsQuery:
    def test_filter_by_protocol(self, store_path, capsys):
        assert main(["results", "query", "--store", store_path,
                     "--protocol", "modified-paxos"]) == 0
        out = capsys.readouterr().out
        assert "2 matching records" in out and "k/tp/1" not in out

    def test_filter_by_tag(self, store_path, capsys):
        assert main(["results", "query", "--store", store_path, "--tag", "seed=2"]) == 0
        out = capsys.readouterr().out
        assert "1 matching records" in out and "k/mp/2" in out

    def test_filter_by_reserved_tag_names(self, store_path, capsys):
        """Tags named like query parameters (every record has a 'protocol' tag)."""
        assert main(["results", "query", "--store", store_path,
                     "--tag", "protocol=traditional-paxos"]) == 0
        out = capsys.readouterr().out
        assert "1 matching records" in out and "k/tp/1" in out

    def test_json_output(self, store_path, capsys):
        assert main(["results", "query", "--store", store_path,
                     "--workload", "obsolete-ballots", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [entry["key"] for entry in data] == ["k/tp/1"]

    def test_bad_tag_filter(self, store_path, capsys):
        assert main(["results", "query", "--store", store_path, "--tag", "nonsense"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().out


class TestResultsExport:
    def test_csv_to_file(self, store_path, tmp_path, capsys):
        out_path = tmp_path / "export.csv"
        assert main(["results", "export", "--store", store_path,
                     "--format", "csv", "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("key,protocol")

    def test_json_to_stdout(self, store_path, capsys):
        assert main(["results", "export", "--store", store_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 3


class TestResultsDiff:
    def test_diff_two_stores(self, store_path, tmp_path, capsys):
        other = JsonlStore(tmp_path / "other.jsonl")
        other.put(make_run_record(protocol="modified-paxos", workload="partitioned-chaos",
                                  n=3, seed=1, lag=2.5, key="k/mp/1"))
        other.close()
        assert main(["results", "diff", store_path, str(tmp_path / "other.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "modified-paxos" in out and "max_lag_diff" in out
        assert "obsolete-ballots" in out  # group missing on side B still listed


class TestExperimentsStoreFlags:
    def test_store_and_resume_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "campaign.jsonl")
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--out", str(tmp_path / "out1"), "--store", store]) == 0
        first = capsys.readouterr().out
        assert "4 records" in first
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--out", str(tmp_path / "out2"), "--store", store, "--resume"]) == 0
        assert (tmp_path / "out1" / "E7.txt").read_bytes() == \
            (tmp_path / "out2" / "E7.txt").read_bytes()

    def test_new_store_is_created(self, tmp_path, capsys):
        # Reading commands refuse a missing store; experiments creates one.
        store = tmp_path / "new.jsonl"
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--out", str(tmp_path / "out"), "--store", str(store)]) == 0
        assert "4 records" in capsys.readouterr().out
        assert main(["results", "ls", "--store", str(store)]) == 0
        assert "4 records (jsonl)" in capsys.readouterr().out

    def test_sqlite_store_path_is_refused(self, tmp_path, capsys):
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--out", str(tmp_path / "out"),
                     "--store", str(tmp_path / "x.sqlite")]) == 2
        assert "*.jsonl path" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_resume_without_store_rejected(self, tmp_path, capsys):
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--out", str(tmp_path), "--resume"]) == 2
        assert "--store" in capsys.readouterr().out

    def test_unknown_store_suffix_is_a_clean_error(self, tmp_path, capsys):
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--out", str(tmp_path), "--store", str(tmp_path / "runs.txt")]) == 2
        assert "backend" in capsys.readouterr().out

    def test_unknown_experiment_runs_nothing(self, tmp_path, capsys):
        store = tmp_path / "c.jsonl"
        out = tmp_path / "out"
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--experiment", "E99", "--out", str(out), "--store", str(store)]) == 2
        printed = capsys.readouterr().out
        assert "unknown experiment E99" in printed
        assert "available: E1, E2, E3, E4, E5, E6, E7, E8, E9" in printed
        assert "running" not in printed
        assert not store.exists() and not out.exists()

    def test_repeated_experiment_runs_once(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        out = tmp_path / "out"
        assert main(["experiments", "--scale", "smoke", "--experiment", "E7",
                     "--experiment", "E7", "--out", str(out), "--store", str(store)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("planning E7") == 1
        assert f"store {store}: 4 records" in printed
        assert len(store.read_text().splitlines()) == 4
        assert (out / "experiments_report.md").read_text().count("## E7") == 1
