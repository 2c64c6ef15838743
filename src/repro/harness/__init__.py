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
  store/resume execution engine behind ``run_experiment`` and
  ``run_smr_tasks``, one ``ResultRow`` per executed task of either
  kind, and the queryable ``ResultSet``.
* :mod:`repro.harness.experiments` — one function per E1–E9 table, built
  on the layers above; :mod:`repro.harness.campaign` — the catalogue that
  runs them at smoke or full scale.
"""
