"""Run the full experiment campaign and write a report.

This is the "regenerate everything" path behind ``repro experiments``::

    python -m repro experiments --scale full --out results/
    python -m repro experiments --scale full --store results/full.jsonl --resume

The campaign is a catalogue: :data:`EXPERIMENTS` maps each id (E1–E9) to
its function, whose size defaults are the full scale, and :data:`SMOKE`
holds the smaller keyword sizes of the smoke scale.  Each function only
plans its experiment (a :class:`~repro.harness.experiments.TablePlan`: its
tasks and how to tabulate their rows).  :func:`run_campaign` plans every
selected experiment, runs all their tasks as one batch (``--jobs N`` fans
the whole batch out over a process pool), and hands each plan its own rows
back; :func:`write_report` writes each regenerated table to
``<out>/E*.txt`` and a combined Markdown report
(``<out>/experiments_report.md``) with the analytic bounds next to the
measured values.

At full scale, each table is also judged against the paper's claims
(:data:`repro.core.timing.CLAIMS`) and prints one verdict line per claim;
``repro experiments`` exits 1 naming any failed verdict.  The smoke grids
are too small to show the claims (E8 has one ``n``), so smoke tables carry
no verdicts.

With a ``--store``, every run streams its record — a
:class:`~repro.results.record.RunRecord` for the single-decree experiments,
an :class:`~repro.results.smr_record.SmrRecord` for E9's multi-decree runs —
into that :class:`~repro.results.store.JsonlStore` as it completes; without
one, no records are built.  With ``--resume``, runs whose content key is
already in the store are loaded instead of executed: a campaign killed
midway re-executes only the missing (protocol, workload, seed) cells and
produces byte-identical tables.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Union

from repro.core.timing import judge
from repro.errors import ConfigurationError
from repro.harness.executors import Executor
from repro.harness.experiment import ResultSet, _run_tasks
from repro.harness.experiments import (
    TablePlan,
    default_experiment_params,
    experiment_e1_modified_paxos_scaling,
    experiment_e2_traditional_obsolete,
    experiment_e3_rotating_coordinator,
    experiment_e4_modified_bconsensus,
    experiment_e5_restart_recovery,
    experiment_e6_epsilon_tradeoff,
    experiment_e7_stable_case,
    experiment_e8_protocol_comparison,
    experiment_e9_smr_stable_case,
)
from repro.harness.tables import ExperimentTable
from repro.results.store import JsonlStore

__all__ = ["EXPERIMENTS", "SMOKE", "CampaignResult", "run_campaign", "write_report"]

# Each function's defaults are its full-scale sizes.
EXPERIMENTS: Mapping[str, Callable[..., TablePlan]] = {
    "E1": experiment_e1_modified_paxos_scaling,
    "E2": experiment_e2_traditional_obsolete,
    "E3": experiment_e3_rotating_coordinator,
    "E4": experiment_e4_modified_bconsensus,
    "E5": experiment_e5_restart_recovery,
    "E6": experiment_e6_epsilon_tradeoff,
    "E7": experiment_e7_stable_case,
    "E8": experiment_e8_protocol_comparison,
    "E9": experiment_e9_smr_stable_case,
}

# The smoke scale: sizes small enough that the whole campaign runs in seconds.
SMOKE: Mapping[str, Mapping[str, Any]] = {
    "E1": {"ns": (3, 5), "seeds": (1,)},
    "E2": {"ns": (5, 7), "seeds": (1,)},
    "E3": {"n": 7, "faulty_counts": (0, 2), "seeds": (1,)},
    "E4": {"ns": (3, 5), "seeds": (1,)},
    "E5": {"n": 5, "offsets": (5.0, 15.0), "seeds": (1,)},
    "E6": {"n": 5, "epsilons": (0.25, 1.0), "seeds": (1,)},
    "E7": {"n": 5, "seeds": (1,)},
    "E8": {"ns": (5,), "seeds": (1,)},
    "E9": {"n": 5, "stable_commands": 6, "chaos_commands": 3},
}


@dataclass
class CampaignResult:
    """All regenerated tables, and how long the campaign's one batch of runs took."""

    scale: str
    tables: List[ExperimentTable] = field(default_factory=list)
    duration: float = 0.0

    def failed_verdicts(self) -> List[str]:
        """The name of every verdict that failed (each names its experiment)."""
        return [
            verdict.name for table in self.tables for verdict in table.verdicts if not verdict.passed
        ]


def run_campaign(
    scale: str = "full",
    experiments: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
    store: Optional[Union[str, JsonlStore]] = None,
    resume: bool = False,
) -> CampaignResult:
    """Run the selected experiments (each once, in first-seen order) at ``scale``.

    ``scale`` is ``"full"`` (each function's defaults) or ``"smoke"``
    (:data:`SMOKE`).  Every selected experiment is planned first, so a bad
    size fails before anything runs; then all their tasks run as one batch
    through the store/resume engine, which takes ``executor`` or ``jobs``
    (not both; with neither, everything runs serially in this process),
    ``store`` (a ``*.jsonl`` path or
    :class:`~repro.results.store.JsonlStore`, which receives every run's
    record as it completes; a store opened from a path is closed again) and
    ``resume`` (runs already in the store are loaded instead of re-executed,
    so an interrupted campaign picks up where it stopped).  Each plan then
    tabulates its own rows; at full scale each table carries the verdicts of
    its claims (:func:`repro.core.timing.judge`).
    """
    if scale not in ("smoke", "full"):
        raise ValueError(f"unknown campaign scale {scale!r}; use 'smoke' or 'full'")
    selected = list(dict.fromkeys(experiments if experiments is not None else EXPERIMENTS))
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        # Checked before anything is planned or opened, so a typo neither
        # runs the valid experiments nor leaves a store file behind.
        raise ConfigurationError(
            f"unknown experiment {', '.join(unknown)}; available: {', '.join(EXPERIMENTS)}"
        )
    plans = {}
    for name in selected:
        if progress is not None:
            progress(f"planning {name} ({scale} scale)")
        plans[name] = EXPERIMENTS[name](**(SMOKE[name] if scale == "smoke" else {}))
    tasks = [task for plan in plans.values() for task in plan.tasks]
    if progress is not None:
        progress(f"running {len(tasks)} runs of {', '.join(selected)} ({scale} scale)")
    started = time.perf_counter()
    rows = _run_tasks(tasks, executor, jobs, store=store, resume=resume)
    result = CampaignResult(scale=scale, duration=time.perf_counter() - started)
    start = 0
    for name, plan in plans.items():
        table = plan.tabulate(ResultSet(rows[start:start + len(plan.tasks)]))
        start += len(plan.tasks)
        if scale == "full":
            table.verdicts = judge(name, table, default_experiment_params())
        result.tables.append(table)
    return result


def write_report(result: CampaignResult, out_dir: str) -> str:
    """Write per-experiment text tables and a combined Markdown report.

    Each table renders exactly once; the same text feeds both the
    ``<out>/E*.txt`` file and the Markdown section.  Returns the path of
    the Markdown report.
    """
    os.makedirs(out_dir, exist_ok=True)
    rendered = {table.experiment: table.render() for table in result.tables}
    for table in result.tables:
        path = os.path.join(out_dir, f"{table.experiment}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered[table.experiment])
            handle.write("\n")

    params = default_experiment_params()
    report_path = os.path.join(out_dir, "experiments_report.md")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write("# Regenerated experiment tables\n\n")
        handle.write(f"Scale: `{result.scale}`; timing constants: {params.describe()}\n\n")
        handle.write(f"_Regenerated in {result.duration:.1f} s._\n\n")
        for table in result.tables:
            handle.write(f"## {table.experiment}: {table.title}\n\n")
            handle.write("```\n")
            handle.write(rendered[table.experiment])
            handle.write("\n```\n\n")
    return report_path

