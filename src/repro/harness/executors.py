"""Declarative tasks that execute themselves, and executors that run batches of them.

The unit of work is a declarative task — either a :class:`RunTask` (one
single-decree consensus run: a workload *name* resolved through
:data:`~repro.workloads.registry.WORKLOADS`, its keyword arguments, a
protocol *name* resolved through
:data:`~repro.consensus.registry.PROTOCOLS`, and grid-point tags) or
an :class:`SmrTask` (one multi-decree run: an SMR workload name, a
declarative :class:`~repro.smr.workload.ScheduleSpec`, and a state-machine
name).  Both kinds share one protocol:

* ``task.kind`` — ``"run"`` or ``"smr"``; records and content keys read it;
* ``task.run()`` — execute in this process through
  :func:`~repro.harness.runner.run_scenario` and return the full
  :class:`~repro.harness.runner.RunResult`, simulator included;
* ``task.execute()`` — execute and return the condensed outcome
  (:class:`~repro.consensus.values.RunOutcome` or
  :class:`~repro.smr.outcome.SmrOutcome`), plain picklable data.  The run
  built it once when it finished (``result.outcome``); :func:`snapshot_outcome`
  hands it on and :func:`~repro.smr.outcome.snapshot_smr_outcome` stamps the
  catalogue workload name on it.

Because a task is plain picklable data, the same task can be executed
in-process by :class:`SerialExecutor` or shipped to a worker process by
:class:`ParallelExecutor` (through the module-level :func:`execute_task`);
what comes back in either case is the condensed outcome, never a
:class:`~repro.sim.simulator.Simulator`.  Simulations are seeded and
deterministic, so serial and parallel execution of the same tasks produce
identical outcomes.

:func:`run_scenario` remains the single-run primitive for both kinds:
tasks call it, they do not replace it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from repro.consensus.values import RunOutcome
from repro.errors import ConfigurationError, ExperimentError
from repro.harness.runner import RunResult, run_scenario
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.outcome import SMR_PROTOCOL, SmrOutcome, snapshot_smr_outcome
from repro.smr.state_machine import AppendOnlyLedger, KeyValueStore
from repro.smr.workload import ScheduleSpec
from repro.workloads.registry import WORKLOADS
from repro.workloads.scenario import Scenario

__all__ = [
    "Executor",
    "ParallelExecutor",
    "RunTask",
    "SerialExecutor",
    "SmrTask",
    "execute_task",
    "machine_factory_for",
    "make_executor",
    "snapshot_outcome",
]

AnyTask = Union["RunTask", "SmrTask"]
AnyOutcome = Union[RunOutcome, SmrOutcome]

# State machines a declarative SMR task may name (factories must be
# module-level so tasks pickle under every multiprocessing start method).
_MACHINE_FACTORIES: Mapping[str, Callable[[], Any]] = {
    "kv": KeyValueStore,
    "ledger": AppendOnlyLedger,
}


def machine_factory_for(name: str) -> Callable[[], Any]:
    """Resolve a declarative state-machine name into its factory."""
    factory = _MACHINE_FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown state machine {name!r}; available: "
            f"{', '.join(sorted(_MACHINE_FACTORIES))}"
        )
    return factory


def build_task_scenario(task: AnyTask) -> Scenario:
    """Materialize the task's scenario through the workload table."""
    return WORKLOADS.create(task.workload, **dict(task.workload_kwargs))


@dataclass(frozen=True)
class RunTask:
    """One declarative (workload, protocol, seed) run.

    ``workload_kwargs`` must include everything the workload factory needs
    (``n``, ``seed``, ``params``, ...) and must be picklable so the task can
    cross a process boundary.  ``tags`` carry grid-point labels (protocol,
    seed, swept parameters); they are not interpreted by the task, only
    echoed back alongside the outcome by the experiment layer.  Every task
    runs the way :func:`run_scenario` does by default: the protocol's
    builder with no arguments, stopped at the last expected decision, with
    a safety or invariant violation raised.
    """

    protocol: str
    workload: str
    workload_kwargs: Mapping[str, Any] = field(default_factory=dict)
    tags: Mapping[str, Any] = field(default_factory=dict)

    kind = "run"

    def run(self) -> RunResult:
        """Execute in this process and keep the full result (simulator included)."""
        return run_scenario(build_task_scenario(self), self.protocol)

    def execute(self) -> RunOutcome:
        """Execute and return the condensed, picklable outcome."""
        return snapshot_outcome(self.run())


@dataclass(frozen=True)
class SmrTask:
    """One declarative multi-decree (SMR) run.

    The multi-decree counterpart of :class:`RunTask`: a workload *name*
    (resolved through the workload table — any workload works, the
    ``smr-*`` family carries SMR-sized defaults), its keyword arguments, a
    declarative :class:`~repro.smr.workload.ScheduleSpec`, and the name of
    the state machine replicas apply (``"kv"`` or ``"ledger"``).  The
    protocol is always the multi-decree Modified Paxos service
    (:data:`~repro.smr.outcome.SMR_PROTOCOL`), so no protocol field is
    needed — ``task.protocol`` is a class constant, which keeps the content
    key shape identical to single-decree tasks.
    """

    workload: str
    schedule: ScheduleSpec
    workload_kwargs: Mapping[str, Any] = field(default_factory=dict)
    machine: str = "kv"
    tags: Mapping[str, Any] = field(default_factory=dict)

    kind = "smr"
    protocol = SMR_PROTOCOL

    def builder(self) -> MultiPaxosSmrBuilder:
        """The SMR builder for this task's schedule and state machine."""
        return MultiPaxosSmrBuilder(self.schedule, machine_factory_for(self.machine))

    def run(self) -> RunResult:
        """Execute in this process and keep the full result (simulator included)."""
        return run_scenario(build_task_scenario(self), self.builder())

    def execute(self) -> SmrOutcome:
        """Execute and return the condensed, picklable outcome."""
        return snapshot_smr_outcome(self.run(), workload=self.workload)


def snapshot_outcome(result: RunResult) -> RunOutcome:
    """The condensed, process-boundary-safe outcome of a :class:`RunResult`.

    :func:`~repro.analysis.metrics.compute_run_metrics` built it when the
    run finished; this is the step :meth:`RunTask.execute` takes to hand it
    on.
    """
    return result.outcome


def execute_task(task: AnyTask) -> AnyOutcome:
    """Execute one task (of either kind) and return its condensed outcome.

    This is the function worker processes run; it must stay module-level so
    it pickles under every multiprocessing start method.
    """
    return task.execute()


class Executor:
    """Strategy for executing a batch of :class:`RunTask`/:class:`SmrTask`\\ s.

    A subclass implements :meth:`imap`; whoever creates an executor closes
    it (a no-op unless the executor holds workers).
    """

    def imap(self, tasks: Sequence[AnyTask]) -> Iterator[AnyOutcome]:
        """Yield outcomes in task order as they complete.

        Consumers that persist outcomes (``run_experiment(..., store=...)``)
        write each record as it arrives instead of holding the whole batch,
        so an interrupted campaign keeps everything finished before the
        interruption.
        """
        raise NotImplementedError(f"{type(self).__name__} must override Executor.imap()")

    def close(self) -> None:
        """Release whatever the executor holds (nothing, by default)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task in the calling process, one after another."""

    def imap(self, tasks: Sequence[AnyTask]) -> Iterator[AnyOutcome]:
        for task in tasks:
            yield task.execute()


class ParallelExecutor(Executor):
    """Fan tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Workers receive picklable :class:`RunTask`\\ s and ship back
    :class:`RunOutcome`\\ s; the simulators live and die inside the workers.
    Small batches (or ``jobs=1``) fall back to in-process execution so the
    pool spin-up cost is only paid when it can be amortized.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ExperimentError(f"ParallelExecutor needs jobs >= 1, got {self.jobs}")
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # The pool is created on first use and reused across imap() calls, so
        # an executor threaded through a whole campaign pays spin-up once.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def imap(self, tasks: Sequence[AnyTask]) -> Iterator[AnyOutcome]:
        tasks = list(tasks)
        if self.jobs <= 1 or len(tasks) <= 1:
            return (execute_task(task) for task in tasks)
        chunksize = max(1, len(tasks) // (4 * self.jobs))
        # Pool.map's iterator yields in task order as chunks complete, so a
        # store-backed consumer persists progress while later tasks still run.
        return self._ensure_pool().map(execute_task, tasks, chunksize=chunksize)

    def close(self) -> None:
        """Shut the worker pool down (the executor stays reusable)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def make_executor(jobs: Optional[int] = None) -> Executor:
    """``jobs`` ≤ 1 (or None) → :class:`SerialExecutor`; otherwise a parallel one."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
