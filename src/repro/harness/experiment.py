"""The unified Experiment API: declarative grids in, queryable result sets out.

An :class:`ExperimentSpec` declares a full experiment — protocols ×
workload-parameter grid × seeds over one catalogue workload — and expands it
into the declarative :class:`~repro.harness.executors.RunTask` list an
:class:`~repro.harness.executors.Executor` can run serially or across
processes.  :func:`run_experiment` pairs every task with its outcome in a
:class:`ResultSet`, which supports tag filtering, grouping, and
summary-stat aggregation and renders straight into an
:class:`~repro.harness.tables.ExperimentTable`.  :func:`run_smr_tasks` runs
:class:`~repro.harness.executors.SmrTask`\\ s through the same engine; every
row of either kind is one :class:`ResultRow`.

Typical use::

    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-paxos",),
        seeds=(1, 2, 3),
        base={"params": params, "ts": 10.0},
        grid={"n": (3, 5, 7, 9)},
    )
    results = run_experiment(spec, jobs=4)
    for (n,), subset in results.group_by("n").items():
        print(n, subset.max(lag_delta))
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.stats import summarize
from repro.errors import ExperimentError
from repro.harness.executors import (
    AnyOutcome,
    AnyTask,
    Executor,
    RunTask,
    SmrTask,
    make_executor,
)

__all__ = [
    "ExperimentSpec",
    "ResultRow",
    "ResultSet",
    "lag_delta",
    "run_experiment",
    "run_smr_tasks",
]

GridPoint = Dict[str, Any]
Binder = Callable[[GridPoint], Mapping[str, Any]]
Metric = Callable[["ResultRow"], Optional[float]]

logger = logging.getLogger("repro.results")


@dataclass(frozen=True)
class ExperimentSpec:
    """Protocols × parameter grid × seeds over one catalogue workload.

    Attributes:
        workload: Workload name resolved through the workload table.
        protocols: Protocol names resolved through the protocol table.
        seeds: RNG seeds; every grid point runs once per seed.
        base: Fixed workload keyword arguments shared by every task.
        grid: Swept parameters; the cartesian product (in declaration
            order) defines the grid points.  Grid keys become tags on every
            task and, unless ``bind`` remaps them, workload kwargs too.
        bind: Optional mapping from a grid point to workload kwargs, for
            swept values that are not literal factory parameters (e.g. an
            epsilon that must be folded into ``TimingParams``).  Runs in the
            parent process, so it may close over anything.
        tags: Constant tags stamped on every task (e.g. ``case="chaos"``).

    Every task runs as :class:`~repro.harness.executors.RunTask` runs: to
    the last expected decision, with violations raised.
    """

    workload: str
    protocols: Sequence[str]
    seeds: Sequence[int] = (0,)
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    bind: Optional[Binder] = None
    tags: Mapping[str, Any] = field(default_factory=dict)

    def points(self) -> List[GridPoint]:
        """The cartesian product of the grid, in declaration order."""
        if not self.grid:
            return [{}]
        keys = list(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[key] for key in keys))
        ]

    def tasks(self) -> List[RunTask]:
        """Expand into one task per (protocol, grid point, seed)."""
        if not self.protocols:
            raise ExperimentError("ExperimentSpec needs at least one protocol")
        if not self.seeds:
            raise ExperimentError("ExperimentSpec needs at least one seed")
        tasks: List[RunTask] = []
        for protocol in self.protocols:
            for point in self.points():
                bound = dict(self.bind(point)) if self.bind is not None else dict(point)
                for seed in self.seeds:
                    kwargs = {**self.base, **bound, "seed": seed}
                    tasks.append(
                        RunTask(
                            protocol=protocol,
                            workload=self.workload,
                            workload_kwargs=kwargs,
                            tags={**self.tags, **point, "protocol": protocol, "seed": seed},
                        )
                    )
        return tasks


@dataclass(frozen=True)
class ResultRow:
    """One executed task (of either kind) paired with its outcome."""

    task: AnyTask
    outcome: AnyOutcome

    @property
    def tags(self) -> Mapping[str, Any]:
        return self.task.tags

    def tag(self, key: str) -> Any:
        if key not in self.task.tags:
            raise ExperimentError(
                f"row has no tag {key!r}; available: {', '.join(sorted(self.task.tags))}"
            )
        return self.task.tags[key]


def lag_delta(row: ResultRow) -> Optional[float]:
    """Worst expected-decider decision lag after ``TS``, in delta units."""
    lag = row.outcome.extra.get("max_lag_after_ts")
    if lag is None:
        return None
    return lag / row.outcome.delta


class ResultSet:
    """An ordered collection of result rows with tag-based queries."""

    def __init__(self, rows: Iterable[ResultRow] = ()) -> None:
        self.rows: List[ResultRow] = list(rows)

    # -- collection protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # -- querying -----------------------------------------------------------
    def filter(self, **tags: Any) -> "ResultSet":
        """Rows matching every given tag."""
        return ResultSet(
            row for row in self.rows
            if all(row.tags.get(key) == value for key, value in tags.items())
        )

    def group_by(self, *keys: str) -> Dict[Tuple[Any, ...], "ResultSet"]:
        """Partition by tag values; groups keep first-seen order."""
        if not keys:
            raise ExperimentError("group_by needs at least one tag key")
        groups: Dict[Tuple[Any, ...], ResultSet] = {}
        for row in self.rows:
            group_key = tuple(row.tags.get(key) for key in keys)
            groups.setdefault(group_key, ResultSet()).rows.append(row)
        return groups

    # -- aggregation ----------------------------------------------------------
    def values(self, metric: Metric) -> List[float]:
        """The metric over every row, Nones dropped."""
        computed = (metric(row) for row in self.rows)
        return [value for value in computed if value is not None]

    def mean(self, metric: Metric) -> Optional[float]:
        values = self.values(metric)
        return summarize(values).mean if values else None

    def max(self, metric: Metric) -> Optional[float]:
        values = self.values(metric)
        return max(values) if values else None

    def min(self, metric: Metric) -> Optional[float]:
        values = self.values(metric)
        return min(values) if values else None

    def total(self, metric: Metric) -> float:
        return sum(self.values(metric))

    def undecided_count(self) -> int:
        return sum(1 for row in self.rows if not row.outcome.all_decided)


def run_experiment(
    spec: Union[ExperimentSpec, Sequence[ExperimentSpec]],
    *,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ResultSet:
    """Expand the spec(s) into tasks, execute them, and pair up the results.

    Pass ``executor`` or ``jobs``, not both; with neither, execution is serial.
    Passing several specs runs their concatenated task lists in one batch,
    so a parallel executor can schedule across all of them.

    ``store`` (a :class:`~repro.results.store.JsonlStore` or a ``*.jsonl``
    path, opened by :func:`~repro.results.store.open_store`) persists every
    executed task as a :class:`~repro.results.record.RunRecord` under its
    content key, streamed as outcomes complete — an interrupted run keeps
    everything finished so far.  With ``resume=True``, tasks whose key is
    already present are loaded from the store instead of executed (cache
    hits are logged on the ``repro.results`` logger); the returned
    :class:`ResultSet` is indistinguishable from a fully fresh run.
    """
    specs = [spec] if isinstance(spec, ExperimentSpec) else list(spec)
    tasks = [task for one in specs for task in one.tasks()]
    return ResultSet(_run_tasks(tasks, executor, jobs, store=store, resume=resume))


def _run_tasks(
    tasks: List[AnyTask],
    executor: Optional[Executor],
    jobs: Optional[int],
    *,
    store: Optional[Any],
    resume: bool,
) -> List[ResultRow]:
    """The one store/resume execution engine behind every task kind.

    Streams ``tasks`` through ``executor.imap`` — or through a new executor
    for ``jobs`` (not both; with neither, execution is serial), closed again
    before returning — and pairs each with its outcome, in task order.  With
    a ``store``, every executed task is frozen into the record type matching
    its kind (:func:`~repro.results.record.record_for_task`) and written as
    it completes — a crash or interrupt mid-batch leaves every finished run
    durable; with ``resume=True``, tasks whose content key is already
    present are loaded instead of executed (cache hits are logged on the
    ``repro.results`` logger).
    """
    if executor is not None and jobs is not None:
        raise ExperimentError("pass either executor or jobs, not both")
    if resume and store is None:
        raise ExperimentError("resume=True needs a store to resume from")
    from repro.results.record import content_key_for_task, record_for_task
    from repro.results.store import JsonlStore, open_store

    opened = store is not None and not isinstance(store, JsonlStore)
    if store is not None:
        store = open_store(store)
        keys = [content_key_for_task(task) for task in tasks]
    else:
        keys = [None] * len(tasks)
    slots: List[Optional[AnyOutcome]] = [None] * len(tasks)
    pending: List[int] = []
    for index, key in enumerate(keys):
        record = store.get(key) if resume else None
        if record is not None:
            # store.get decodes a fresh record from its line: no copy needed.
            slots[index] = record.outcome
            logger.info("cache hit: %s", key)
        else:
            pending.append(index)
    if resume:
        logger.info(
            "resume: %d of %d runs cached, executing %d",
            len(tasks) - len(pending), len(tasks), len(pending),
        )
    owns_executor = executor is None
    if owns_executor:
        executor = make_executor(jobs)
    try:
        for index, outcome in zip(pending, executor.imap([tasks[i] for i in pending])):
            slots[index] = outcome
            if store is not None:
                store.put(record_for_task(tasks[index], outcome, key=keys[index]))
    finally:
        if owns_executor:
            executor.close()
        if store is not None:
            store.flush()
            if opened:
                store.close()
    unanswered = sum(outcome is None for outcome in slots)
    if unanswered:
        # A campaign slices these rows back per experiment by position, so a
        # missing row would shift every later table.
        raise ExperimentError(
            f"executor returned no outcome for {unanswered} of {len(pending)} tasks"
        )
    return [ResultRow(task, outcome) for task, outcome in zip(tasks, slots)]


def run_smr_tasks(
    tasks: Sequence[SmrTask],
    *,
    executor: Optional[Executor] = None,
    jobs: Optional[int] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> List[ResultRow]:
    """Execute SMR tasks through the same executor/store pipeline as runs.

    The multi-decree counterpart of :func:`run_experiment`: tasks fan out
    over the given executor (``executor`` or ``jobs``, not both; with
    neither, execution is serial), every executed task streams its
    :class:`~repro.results.smr_record.SmrRecord` into ``store`` as it
    completes, and ``resume=True`` loads tasks whose content key is already
    present instead of executing them — an interrupted SMR campaign
    re-executes exactly the missing runs.
    """
    return _run_tasks(list(tasks), executor, jobs, store=store, resume=resume)
