"""Experiment harness: run scenarios, declare experiment grids, render tables.

Layers, bottom-up:

* :mod:`repro.harness.runner` — :func:`run_scenario`, the single-run
  primitive (one scenario, one protocol, full :class:`RunResult`).
* :mod:`repro.harness.executors` — declarative tasks (:class:`RunTask`,
  :class:`~repro.harness.executors.SmrTask`) that execute themselves
  (``task.run()`` for the full result, ``task.execute()`` for the condensed
  outcome), batched by a :class:`SerialExecutor` or a process-pool
  :class:`ParallelExecutor`.
* :mod:`repro.harness.experiment` — :class:`ExperimentSpec` grids, the one
  store/resume execution engine behind ``run_experiment`` and
  ``run_smr_tasks``, one :class:`ResultRow` per executed task of either
  kind, and the queryable :class:`ResultSet`.
* :mod:`repro.harness.experiments` / :mod:`repro.harness.comparison` /
  :mod:`repro.harness.campaign` — the paper's E1–E9 tables built on the
  layers above.
"""

from repro.harness.executors import (
    Executor,
    ParallelExecutor,
    RunTask,
    SerialExecutor,
    make_executor,
)
from repro.harness.experiment import (
    ExperimentSpec,
    ResultRow,
    ResultSet,
    lag_delta,
    run_experiment,
)
from repro.harness.runner import RunResult, run_scenario
from repro.harness.tables import ExperimentTable, render_table

__all__ = [
    "Executor",
    "ExperimentSpec",
    "ExperimentTable",
    "ParallelExecutor",
    "ResultRow",
    "ResultSet",
    "RunResult",
    "RunTask",
    "SerialExecutor",
    "lag_delta",
    "make_executor",
    "render_table",
    "run_experiment",
    "run_scenario",
]
