#!/usr/bin/env python3
"""Resumable campaigns: persist every run, resume for free, query afterwards.

The results subsystem (:mod:`repro.results`) makes run output durable:

1. run a protocol grid with a ``store`` — every run streams a
   schema-versioned :class:`~repro.results.record.RunRecord` into a
   ``JsonlStore`` under its content key as it completes;
2. run the *same* grid again with ``resume=True`` — every run is a cache
   hit, zero simulations execute, and the result set (and any table built
   from it) is identical;
3. query the store afterwards: records flow back into a
   :class:`~repro.harness.experiment.ResultSet`, so the usual tag filters
   and aggregations work on data that outlived the process that made it.

A campaign killed midway behaves the same way: completed runs are already
on disk, so the re-invocation executes only the missing cells.

Run with::

    python examples/resumable_campaign.py
"""

import logging
import os
import tempfile
import time

from repro.harness.executors import SerialExecutor
from repro.harness.experiment import ExperimentSpec, lag_delta, run_experiment
from repro.harness.tables import ExperimentTable
from repro.params import TimingParams
from repro.results.query import lag_aggregates
from repro.results.store import open_store


class CountingExecutor(SerialExecutor):
    """Runs tasks in this process and counts how many it executes."""

    def __init__(self) -> None:
        self.executed = 0

    def imap(self, tasks):
        self.executed += len(tasks)
        return super().imap(tasks)


class CacheHits(logging.Handler):
    """Counts the ``cache hit`` lines the results logger emits on resume."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += record.getMessage().startswith("cache hit: ")


def main() -> None:
    params = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-paxos", "traditional-paxos"),
        seeds=(1, 2),
        base={"params": params, "ts": 10.0},
        grid={"n": (3, 5, 7)},
    )

    store_path = os.path.join(tempfile.mkdtemp(prefix="repro-campaign-"), "runs.jsonl")

    started = time.perf_counter()
    fresh = run_experiment(spec, store=store_path)
    fresh_wall = time.perf_counter() - started
    print(f"fresh run    : {len(fresh)} simulations in {fresh_wall:.2f}s -> {store_path}")

    executor, hits = CountingExecutor(), CacheHits()
    results_logger = logging.getLogger("repro.results")
    level = results_logger.level
    results_logger.setLevel(logging.INFO)
    results_logger.addHandler(hits)
    try:
        started = time.perf_counter()
        resumed = run_experiment(spec, executor=executor, store=store_path, resume=True)
        resumed_wall = time.perf_counter() - started
    finally:
        results_logger.removeHandler(hits)
        results_logger.setLevel(level)
    print(f"resumed run  : {len(resumed)} rows in {resumed_wall:.3f}s (all cache hits)")

    table = ExperimentTable.from_result_set(
        resumed,
        experiment="DEMO",
        title="Decision lag after TS from stored records (delta units)",
        group=("protocol", "n"),
        columns={"runs": len, "max_lag_delta": lambda subset: subset.max(lag_delta)},
    )
    print()
    print(table.render())

    # The store is a first-class queryable artifact, independent of the spec.
    with open_store(store_path) as store:
        slow = store.query(where=lambda record: (record.lag_delta or 0.0) > 3.0)
        print()
        print(f"stored records with lag > 3 delta: {len(slow)} of {len(store)}")
        for (protocol, workload), aggregate in lag_aggregates(store.records()).items():
            print(f"  {aggregate.describe()}")

    # Resuming executes nothing: every row is loaded from the store.
    assert executor.executed == 0, f"resume executed {executor.executed} simulations"
    assert hits.count == len(resumed) == len(fresh), (hits.count, len(resumed), len(fresh))


if __name__ == "__main__":
    main()
