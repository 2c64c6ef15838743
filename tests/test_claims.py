"""The paper's claims, checked as verdicts on the full-scale E1–E9 tables.

One full campaign runs per module.  Every experiment has claims and every
verdict passes on the real tables.  Each claim fails on a table without
rows, and one mutant per experiment doctors a single cell of that
experiment's real table and must fail the named verdict.
"""

import copy

import pytest

from repro.cli import main
from repro.core.timing import CLAIMS, judge
from repro.harness.campaign import EXPERIMENTS, run_campaign
from repro.harness.experiments import default_experiment_params
from repro.harness.tables import ExperimentTable

_EXPERIMENT_OF = {name: experiment for experiment, claims in CLAIMS.items() for name in claims}


@pytest.fixture(scope="module")
def full_campaign():
    return run_campaign("full")


def _verdict(table, name):
    return {verdict.name: verdict for verdict in table.verdicts}[name]


def test_every_experiment_has_claims_and_its_table_judges_each(full_campaign):
    assert list(CLAIMS) == list(EXPERIMENTS)
    for table in full_campaign.tables:
        assert CLAIMS[table.experiment]
        assert [verdict.name for verdict in table.verdicts] == list(CLAIMS[table.experiment])
    assert full_campaign.failed_verdicts() == []


@pytest.mark.parametrize("name", sorted(_EXPERIMENT_OF))
def test_verdict_passes_on_the_full_table(full_campaign, name):
    table = full_campaign.table(_EXPERIMENT_OF[name])
    verdict = _verdict(table, name)
    assert verdict.passed, verdict
    rendered = table.render()
    assert f"verdict {name}: pass" in rendered
    # The verdict lines come after the notes and are the only new text.
    assert rendered.splitlines()[-len(table.verdicts) - 1].startswith("notes: ")


@pytest.mark.parametrize("name", sorted(_EXPERIMENT_OF))
def test_verdict_over_a_table_without_rows_fails(full_campaign, name):
    experiment = _EXPERIMENT_OF[name]
    real = full_campaign.table(experiment)
    empty = ExperimentTable(real.experiment, real.title, list(real.headers), notes=real.notes)
    verdict = {v.name: v for v in judge(experiment, empty, default_experiment_params())}[name]
    assert not verdict.passed
    assert verdict.measured is None or verdict.limit is None


# One doctored cell per experiment: (the row with these cells, header, value, the
# verdict it must fail).  The values are against the real full-scale tables.
_MUTANTS = {
    "E1": ({"n": 13}, "max_lag_delta", 17.75, "e1_lag_within_bound"),
    # The largest n below the smallest n's 9.3 delta.
    "E2": ({"n": 31}, "max_lag_delta", 5.0, "e2_grows_with_n"),
    # About 1 delta per crashed coordinator from f=0 (2.6 delta) to f=10.
    "E3": ({"faulty_f": 10}, "max_lag_delta", 12.5, "e3_slope_per_crashed_coordinator"),
    "E4": ({"n": 9}, "undecided", 1, "e4_every_n_decides"),
    "E5": ({"restart_offset_delta": 40.0}, "max_recovery_delta", None, "e5_every_offset_recovers"),
    # Just over its own bound of 27 delta.
    "E6": ({"epsilon_delta": 4.0}, "max_lag_delta", 27.01, "e6_lag_within_bound"),
    "E7": ({"protocol": "modified-paxos"}, "max_decision_delta", 6.5, "e7_modified_paxos_cold_start"),
    # Below Modified Paxos's 2.8 delta under chaos at n=15.
    "E8": ({"protocol": "traditional-paxos", "n": 15}, "adversarial_lag_delta", 2.0,
           "e8_traditional_paxos_overtakes_modified_paxos"),
    "E9": ({"case": "stable, submitted at leader"}, "worst_global_latency_delta", 3.5,
           "e9_leader_within_three_delays"),
}


def test_every_experiment_has_a_mutant():
    assert list(_MUTANTS) == list(CLAIMS)


@pytest.mark.parametrize("experiment", sorted(_MUTANTS))
def test_mutant_fails_its_named_verdict(full_campaign, experiment):
    where, header, value, name = _MUTANTS[experiment]
    table = copy.deepcopy(full_campaign.table(experiment))
    (row,) = [row for row in table.rows if where.items() <= row.items()]
    row[header] = value
    table.verdicts = judge(experiment, table, default_experiment_params())
    assert not _verdict(table, name).passed
    assert f"verdict {name}: FAIL" in table.render()


def test_smoke_tables_carry_no_verdicts():
    result = run_campaign("smoke", experiments=["E7"])
    assert result.table("E7").verdicts == []
    assert "verdict" not in result.table("E7").render()


def test_experiments_command_exits_1_naming_a_failed_verdict(tmp_path, monkeypatch, capsys):
    def e7_never_holds(table, params):
        return 1.0, "<", 0.0

    monkeypatch.setitem(CLAIMS, "E7", {"e7_never_holds": e7_never_holds})
    out = tmp_path / "tables"
    assert main(["experiments", "--scale", "full", "--experiment", "E7", "--out", str(out)]) == 1
    assert "failed verdicts: e7_never_holds" in capsys.readouterr().out
    # The table and the report are written before the command fails.
    assert "verdict e7_never_holds: FAIL (1.000 < 0.000)" in (out / "E7.txt").read_text()
    assert "e7_never_holds: FAIL" in (out / "experiments_report.md").read_text()
