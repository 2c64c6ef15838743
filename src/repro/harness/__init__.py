"""Experiment harness: run scenarios, declare experiment grids, render tables.

Layers, bottom-up:

* :mod:`repro.harness.runner` — ``run_scenario``, the single-run
  primitive of both run kinds (one scenario, one protocol builder, full
  ``RunResult``).
* :mod:`repro.harness.executors` — declarative tasks (``RunTask``,
  ``SmrTask``) that execute themselves (``task.run()`` for the full
  result, ``task.execute()`` for the condensed outcome), batched by a
  ``SerialExecutor`` or a process-pool ``ParallelExecutor``.
* :mod:`repro.harness.experiment` — ``ExperimentSpec`` grids, the one
  store/resume execution engine behind ``run_experiment``,
  ``run_smr_tasks`` and the campaign, one ``ResultRow`` per executed task
  of either kind, and the queryable ``ResultSet``.
* :mod:`repro.harness.experiments` — one function per E1–E9 table, each
  taking only its sizes and returning its ``TablePlan`` (the tasks it runs
  and how to tabulate their rows); :mod:`repro.harness.campaign` — the
  catalogue that plans them at smoke or full scale and runs all their
  tasks as one batch through that engine.
"""
