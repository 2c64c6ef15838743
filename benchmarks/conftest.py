"""Shared configuration for the benchmark suite.

Each benchmark regenerates one experiment (E1–E9) exactly once, at the
full campaign scale (each experiment function's defaults) —
these are macro-benchmarks of whole simulated executions, so
``benchmark.pedantic(..., rounds=1, iterations=1)`` is used instead of
letting pytest-benchmark calibrate thousands of iterations.  The regenerated
table is printed so that running ``pytest benchmarks/ --benchmark-only -s``
(or reading ``bench_output.txt``) shows the paper-shaped results alongside
the timings.

Set ``REPRO_BENCH_JOBS=N`` to fan each experiment's runs out over ``N``
worker processes (every experiment gets one shared parallel executor; the
regenerated tables are identical to serial runs because
every simulation is seeded and deterministic — only the wall-clock column
changes).
"""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the benchmarks from a fresh checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.harness.executors import make_executor  # noqa: E402

_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
_EXECUTOR = make_executor(_JOBS)

_TABLES_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark_tables.txt")
_tables_initialized = False


def _persist_table(rendered: str) -> None:
    """Append the rendered experiment table to ``benchmark_tables.txt``.

    pytest captures stdout, so the regenerated tables would otherwise be
    invisible in ``bench_output.txt``; persisting them to a sibling file
    keeps the paper-shaped results inspectable after a benchmark run.
    """
    global _tables_initialized
    mode = "a" if _tables_initialized else "w"
    with open(_TABLES_PATH, mode, encoding="utf-8") as handle:
        handle.write(rendered)
        handle.write("\n\n")
    _tables_initialized = True


def run_experiment_once(benchmark, experiment_fn, **kwargs):
    """Run ``experiment_fn(**kwargs)`` once under the benchmark timer.

    When ``REPRO_BENCH_JOBS`` asks for parallelism, the shared executor is
    handed to the experiment.
    """
    if _JOBS > 1:
        kwargs.setdefault("executor", _EXECUTOR)
    table = benchmark.pedantic(lambda: experiment_fn(**kwargs), rounds=1, iterations=1)
    rendered = table.render()
    print()
    print(rendered)
    _persist_table(rendered)
    return table


@pytest.fixture
def experiment_runner(benchmark):
    """Fixture wrapping :func:`run_experiment_once` with the benchmark object."""

    def runner(experiment_fn, **kwargs):
        return run_experiment_once(benchmark, experiment_fn, **kwargs)

    return runner
