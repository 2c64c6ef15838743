"""Run the full experiment campaign and write a report.

This is the "regenerate everything" path behind ``repro experiments``::

    python -m repro experiments --scale full --out results/
    python -m repro experiments --scale full --store results/full.jsonl --resume

It runs experiments E1–E9 at the requested scale (``--jobs N`` fans the
runs of each experiment out over a process pool), writes each regenerated
table to ``<out>/E*.txt``, and produces a combined Markdown report
(``<out>/experiments_report.md``) with the analytic bounds next to the
measured values.

Every run of every experiment streams its record — a
:class:`~repro.results.record.RunRecord` for the single-decree experiments,
an :class:`~repro.results.smr_record.SmrRecord` for E9's multi-decree runs —
into a :class:`~repro.results.store.ResultStore`: a durable one named by
``--store`` or a process-local :class:`~repro.results.store.MemoryStore`
by default, so :meth:`CampaignResult.to_store` always has records to copy.
With ``--resume``, runs whose content key is already in the store are
loaded instead of executed: a campaign killed midway re-executes only the
missing (protocol, workload, seed) cells and produces byte-identical
tables.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.harness.comparison import experiment_e8_protocol_comparison
from repro.harness.executors import Executor, make_executor
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e1_modified_paxos_scaling,
    experiment_e2_traditional_obsolete,
    experiment_e3_rotating_coordinator,
    experiment_e4_modified_bconsensus,
    experiment_e5_restart_recovery,
    experiment_e6_epsilon_tradeoff,
    experiment_e7_stable_case,
    experiment_e9_smr_stable_case,
)
from repro.errors import ConfigurationError
from repro.harness.tables import ExperimentTable
from repro.results.store import MemoryStore, ResultStore, open_store

__all__ = ["CampaignResult", "campaign_plan", "run_campaign", "write_report"]

ExperimentFn = Callable[[], ExperimentTable]


@dataclass
class CampaignResult:
    """All regenerated tables, timing information, and the run-record store."""

    scale: str
    tables: List[ExperimentTable] = field(default_factory=list)
    durations: Dict[str, float] = field(default_factory=dict)
    store: Optional[ResultStore] = None

    def table(self, experiment: str) -> ExperimentTable:
        for table in self.tables:
            if table.experiment == experiment:
                return table
        raise KeyError(experiment)

    def to_store(self, target: Union[str, ResultStore]) -> int:
        """Copy every run record this campaign produced into ``target``.

        ``target`` is a :class:`~repro.results.store.ResultStore` or a path
        accepted by :func:`~repro.results.store.open_store`.  Returns the
        number of records copied.  Lets a campaign that ran against the
        default in-memory store be persisted after the fact (e.g. by
        :func:`write_report`).
        """
        if self.store is None:
            return 0
        opened = not isinstance(target, ResultStore)
        target = open_store(target)
        try:
            return self.store.copy_into(target)
        finally:
            if opened:
                target.close()


def campaign_plan(
    scale: str = "full",
    executor: Optional[Executor] = None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
) -> Dict[str, ExperimentFn]:
    """The experiments to run, sized for ``scale`` ("smoke" or "full").

    The smoke scale exists so tests (and impatient users) can exercise the
    whole campaign path in seconds; the full scale matches the benchmark
    suite.  ``executor``, ``store``, and ``resume`` are
    threaded into every experiment, so one parallel executor accelerates —
    and one store caches — the whole campaign.
    """
    params = default_experiment_params()
    ex, st, rs = executor, store, resume
    if scale == "smoke":
        return {
            "E1": lambda: experiment_e1_modified_paxos_scaling(
                ns=(3, 5), seeds=(1,), params=params, executor=ex, store=st, resume=rs
            ),
            "E2": lambda: experiment_e2_traditional_obsolete(
                ns=(5, 7), seeds=(1,), params=params, executor=ex, store=st, resume=rs
            ),
            "E3": lambda: experiment_e3_rotating_coordinator(
                n=7, faulty_counts=(0, 2), seeds=(1,), params=params, executor=ex,
                store=st, resume=rs
            ),
            "E4": lambda: experiment_e4_modified_bconsensus(
                ns=(3, 5), seeds=(1,), params=params, executor=ex, store=st, resume=rs
            ),
            "E5": lambda: experiment_e5_restart_recovery(
                n=5, offsets=(5.0, 15.0), seeds=(1,), params=params, executor=ex,
                store=st, resume=rs
            ),
            "E6": lambda: experiment_e6_epsilon_tradeoff(
                n=5, epsilons=(0.25, 1.0), seeds=(1,), base_params=params, executor=ex,
                store=st, resume=rs
            ),
            "E7": lambda: experiment_e7_stable_case(
                n=5, seeds=(1,), params=params, executor=ex, store=st, resume=rs
            ),
            "E8": lambda: experiment_e8_protocol_comparison(
                ns=(5,), seeds=(1,), params=params, executor=ex, store=st, resume=rs
            ),
            "E9": lambda: experiment_e9_smr_stable_case(
                n=5, stable_commands=6, chaos_commands=3, params=params, executor=ex,
                store=st, resume=rs
            ),
        }
    if scale == "full":
        return {
            "E1": lambda: experiment_e1_modified_paxos_scaling(
                ns=(3, 5, 7, 9, 13, 17, 21, 25, 31), seeds=(1, 2, 3), params=params,
                executor=ex, store=st, resume=rs
            ),
            "E2": lambda: experiment_e2_traditional_obsolete(
                ns=(5, 9, 13, 17, 21, 25, 31), seeds=(1, 2), params=params, executor=ex,
                store=st, resume=rs
            ),
            "E3": lambda: experiment_e3_rotating_coordinator(
                n=21, faulty_counts=(0, 2, 4, 6, 8, 10), seeds=(1, 2), params=params,
                executor=ex, store=st, resume=rs
            ),
            "E4": lambda: experiment_e4_modified_bconsensus(
                ns=(3, 5, 7, 9, 13, 17, 21), seeds=(1, 2), params=params, executor=ex,
                store=st, resume=rs
            ),
            "E5": lambda: experiment_e5_restart_recovery(
                n=9, offsets=(5.0, 20.0, 40.0, 80.0), seeds=(1, 2), params=params,
                executor=ex, store=st, resume=rs
            ),
            "E6": lambda: experiment_e6_epsilon_tradeoff(
                n=9, epsilons=(0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0), seeds=(1, 2),
                base_params=params, executor=ex, store=st, resume=rs
            ),
            "E7": lambda: experiment_e7_stable_case(
                n=9, seeds=(1, 2, 3), params=params, executor=ex, store=st, resume=rs
            ),
            "E8": lambda: experiment_e8_protocol_comparison(
                ns=(5, 9, 15), seeds=(1,), params=params, executor=ex, store=st, resume=rs
            ),
            "E9": lambda: experiment_e9_smr_stable_case(
                n=9, stable_commands=30, chaos_commands=10, params=params, executor=ex,
                store=st, resume=rs
            ),
        }
    raise ValueError(f"unknown campaign scale {scale!r}; use 'smoke' or 'full'")


def run_campaign(
    scale: str = "full",
    experiments: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
    store: Optional[Union[str, ResultStore]] = None,
    resume: bool = False,
) -> CampaignResult:
    """Run the selected experiments and return their tables.

    ``executor`` wins over ``jobs``; with neither, everything runs serially
    in this process.  ``store`` (a path or
    :class:`~repro.results.store.ResultStore`) receives every run's record
    as it completes; without one, records collect in a process-local
    :class:`~repro.results.store.MemoryStore` exposed as
    ``CampaignResult.store``.  With ``resume=True``, runs already in the
    store are loaded instead of re-executed, so an interrupted campaign
    picks up where it stopped.
    """
    available = sorted(campaign_plan(scale))
    selected = experiments if experiments is not None else available
    unknown = [name for name in selected if name not in available]
    if unknown:
        # Checked before the store opens, so a typo neither runs the valid
        # experiments first nor leaves a store file behind.
        raise ConfigurationError(
            f"unknown experiment {', '.join(unknown)}; available: {', '.join(available)}"
        )
    owns_executor = executor is None
    executor = executor if executor is not None else make_executor(jobs)
    store_obj = open_store(store) if store is not None else MemoryStore()
    plan = campaign_plan(scale, executor=executor, store=store_obj, resume=resume)
    result = CampaignResult(scale=scale, store=store_obj)
    try:
        for name in selected:
            if progress is not None:
                progress(f"running {name} ({scale} scale)")
            started = time.perf_counter()
            table = plan[name]()
            result.durations[name] = time.perf_counter() - started
            result.tables.append(table)
    finally:
        # Flush but do not close: CampaignResult.store stays usable (e.g. for
        # to_store / write_report) after the campaign returns.
        store_obj.flush()
        if owns_executor:
            close = getattr(executor, "close", None)
            if close is not None:
                close()
    return result


def write_report(
    result: CampaignResult,
    out_dir: str,
    store: Optional[Union[str, ResultStore]] = None,
) -> str:
    """Write per-experiment text tables and a combined Markdown report.

    Each table renders exactly once; the same text feeds both the
    ``<out>/E*.txt`` file and the Markdown section.  ``store`` additionally
    persists the campaign's run records there (via
    :meth:`CampaignResult.to_store`), so one call produces tables *and* a
    durable, queryable store.  Returns the path of the Markdown report.
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
        for table in result.tables:
            duration = result.durations.get(table.experiment, 0.0)
            handle.write(f"## {table.experiment}: {table.title}\n\n")
            handle.write("```\n")
            handle.write(rendered[table.experiment])
            handle.write("\n```\n\n")
            handle.write(f"_Regenerated in {duration:.1f} s._\n\n")

    if store is not None:
        result.to_store(store)
    return report_path

