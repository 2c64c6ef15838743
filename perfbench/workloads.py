"""The benchmark's workloads: campaigns users run, driven through the public pipeline.

Each workload turns the benchmark seed into a fixed plan (one *pass*: a list
of declarative tasks, or the experiment specs that expand into them), runs
the pass through ``SerialExecutor`` and ``run_experiment`` /
``run_smr_tasks`` exactly as the experiments do, and times every run from
outside.  One process, serial executor: on a small shared machine a process
pool would measure the scheduler, not the program.  Times are this
process's CPU time (user + system): the workloads are single-threaded and
CPU-bound, and on a shared machine wall time mostly measures the other
tenants.  Each run's time is then scaled to a fixed reference speed measured
next to it (:class:`SpeedMeter`).  README.md records why each workload was
chosen.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import os
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench import gate
from repro.harness.executors import SerialExecutor, SmrTask
from repro.harness.experiment import ExperimentSpec, run_experiment, run_smr_tasks
from repro.harness.experiments import default_experiment_params
from repro.results.store import JsonlStore
from repro.smr.workload import ScheduleSpec
from repro.workloads.registry import default_workload_registry


def sim_seeds(workload: str, seed: int, count: int) -> Tuple[int, ...]:
    """``count`` distinct simulation seeds drawn from the benchmark seed."""
    return tuple(random.Random(f"{workload}/{seed}").sample(range(1, 1_000_000), count))


def spin(seconds: float) -> None:
    """Keep the CPU busy on :func:`reference_kernel` for ``seconds`` of wall time.

    On a shared 2-CPU machine the first pass of a process ran up to 70%
    slower than later ones, and a fixed kernel timed beside it slowed alike,
    so the CPU itself was slow.  Spinning before timing brings it up
    to speed without touching the program under test.
    """
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        reference_kernel()


class _Event:
    __slots__ = ("src", "dst", "kind", "time")


REFERENCE_S = 0.05  # nominal CPU seconds of one reference_kernel() call


def reference_kernel() -> None:
    """Fixed stdlib-only work shaped like a simulation: an event heap, small
    slotted objects, dict counters and a growing log of dict records."""
    heap: List[Tuple[float, int, _Event]] = []
    counts: Dict[Tuple[int, str], int] = {}
    log: List[Dict[str, Any]] = []
    for i in range(20_000):
        event = _Event()
        event.src, event.dst = i % 25, (i * 7) % 25
        event.kind, event.time = ("phase1a" if i & 1 else "phase2b"), i * 0.001
        heapq.heappush(heap, (event.time + (i % 13) * 0.01, i, event))
        if len(heap) > 500:
            when, _, event = heapq.heappop(heap)
            key = (event.dst, event.kind)
            counts[key] = counts.get(key, 0) + 1
            log.append({"time": when, "src": event.src, "dst": event.dst, "kind": event.kind})


def kernel_seconds() -> float:
    """CPU seconds of one :func:`reference_kernel` call, garbage collector off.

    The kernel allocates some 20k objects.  With the collector on, its time
    included collections over whatever heap the workload had left behind and
    swung by half between neighbouring calls; off, it measures the CPU alone.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        reference_kernel()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: int = 3) -> float:
    """REFERENCE_S over the median of ``probes`` :func:`kernel_seconds` calls.

    Other tenants of a shared machine slow this process's CPU time too: on
    the 2-CPU container the benchmark was tuned on, the same run took 30-50%
    longer in a slow phase, and the kernel slowed alike.  A time multiplied by
    the factor measured next to it reads at a fixed reference speed.  The
    kernel uses none of the repository's code, so a change to the program
    cannot move it.
    """
    return REFERENCE_S / statistics.median(kernel_seconds() for _ in range(probes))


# CPU seconds between reference-speed samples.  The traced run passes
# math.inf (samples only before and after a pass), so the kernel's time stays
# out of the layer shares.
SAMPLE_INTERVAL = 0.25


class SpeedMeter:
    """Samples the reference speed between the runs of a pass.

    A sample is one :func:`kernel_seconds` call, taken before the first run,
    after the last, and between runs once ``interval`` CPU seconds have gone
    by since the previous one; the samples run outside every run's timing.
    Each run is scaled by the median of the two samples on either side of it,
    so a slow phase of a second or two is corrected where it happened and a
    single disturbed sample does not move the factor.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.runs: List[Tuple[float, int]] = []  # (CPU seconds, samples taken before it)
        self.sample()

    def sample(self) -> None:
        self.samples.append(kernel_seconds())
        self.last = process_time()

    def record(self, seconds: float) -> None:
        """Note one run's CPU seconds; sample the speed if it is time to."""
        self.runs.append((seconds, len(self.samples)))
        if process_time() - self.last >= self.interval:
            self.sample()

    def factor(self, before: int) -> float:
        return REFERENCE_S / statistics.median(self.samples[max(before - 2, 0):before + 2])

    def scaled(self) -> List[float]:
        """Every recorded run's CPU seconds at the reference speed."""
        self.sample()
        return [seconds * self.factor(before) for seconds, before in self.runs]

    def speed(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def _max(current: Optional[float], value: Optional[float]) -> Optional[float]:
    if value is None:
        return current
    return value if current is None else max(current, value)


@dataclass
class PassResult:
    """What one pass over a workload's plan produced."""

    # CPU seconds at reference speed of each finished run (the write pass on
    # campaign-resume)
    run_s: List[float] = field(default_factory=list)
    digests: List[Optional[str]] = field(default_factory=list)  # per task; None = failed
    resume_digests: List[Optional[str]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    resume_s: float = 0.0  # the store-only resume pass (campaign-resume), reference speed
    store_bytes: int = 0
    commands: int = 0  # commands learned by every expected replica
    lag_max_delta: Optional[float] = None  # worst post-TS decision lag
    command_latency_max_delta: Optional[float] = None  # worst global command latency
    speed: float = 1.0  # the median speed_factor over the pass's samples

    @classmethod
    def collect(cls, outcomes: Sequence[Any], meter: SpeedMeter) -> "PassResult":
        """The result of a pass whose run times ``meter`` recorded, in order."""
        times = meter.scaled()
        result = cls(speed=meter.speed())
        for outcome, seconds in zip(outcomes, times):
            result.add(outcome, seconds)
        return result

    def add(self, outcome: Any, seconds: Optional[float]) -> None:
        """Record one run: its outcome (or the exception it raised) and CPU time."""
        if isinstance(outcome, Exception):
            self.digests.append(None)
            self.errors.append(f"{type(outcome).__name__}: {outcome}")
            return
        if seconds is not None:
            self.run_s.append(seconds)
        problems = gate.outcome_problems(outcome)
        self.errors.extend(problems)
        self.digests.append(None if problems else gate.outcome_digest(outcome))
        if hasattr(outcome, "unlearned_command_ids"):
            self.commands += outcome.total_commands - len(outcome.unlearned_command_ids())
            latency = outcome.worst_global_latency()
            if latency is not None:
                self.command_latency_max_delta = _max(
                    self.command_latency_max_delta, latency / outcome.delta)
        else:
            lag = outcome.extra.get("max_lag_after_ts")
            if lag is not None:
                self.lag_max_delta = _max(self.lag_max_delta, lag / outcome.delta)


def stream(executor: SerialExecutor, tasks: Sequence[Any]) -> Iterator[Tuple[Any, float]]:
    """Yield ``(outcome, seconds)`` per task, streamed through ``executor.imap``.

    A run that raises yields its exception instead, and streaming resumes
    with the next task, so one failing run cannot hide the rest.  The
    consumer's own time between runs is not counted.
    """
    done = 0
    while done < len(tasks):
        outcomes = executor.imap(tasks[done:])
        last = process_time()
        try:
            for outcome in outcomes:
                seconds = process_time() - last
                done += 1
                yield outcome, seconds
                last = process_time()
        except Exception as error:  # a failed run is counted, not fatal
            done += 1
            yield error, process_time() - last


class Workload:
    """One benchmark workload: a seeded plan and a timed pass over it."""

    name = ""

    def plan(self, seed: int) -> Any:
        raise NotImplementedError

    def runs(self, plan: Any) -> int:
        """Runs one pass executes."""
        return len(plan)

    def run_pass(self, plan: Any, scratch: str, interval: float = SAMPLE_INTERVAL) -> PassResult:
        """One pass over ``plan``; ``interval`` is the :class:`SpeedMeter`'s."""
        raise NotImplementedError

    def warm_up(self, scratch: str) -> None:
        """Run one small pass so lazy imports and caches fill before timing."""
        raise NotImplementedError


class E1ChaosScaling(Workload):
    """Modified Paxos on partitioned-chaos across n, as E1 runs it."""

    name = "e1-chaos-scaling"
    # An odd number of equal n-groups puts the median run inside one group
    # (n = 13) instead of on the seed-sensitive edge between two.
    ns = (5, 7, 9, 13, 17, 21, 25)
    seeds_per_n = 12  # 84 runs a pass: 4 of them lie beyond the 95th percentile

    def plan(self, seed: int) -> List[Any]:
        return ExperimentSpec(
            workload="partitioned-chaos",
            protocols=("modified-paxos",),
            seeds=sim_seeds(self.name, seed, self.seeds_per_n),
            base={"params": default_experiment_params(), "ts": 10.0},
            grid={"n": self.ns},
        ).tasks()

    def run_pass(self, plan: List[Any], scratch: str,
                 interval: float = SAMPLE_INTERVAL) -> PassResult:
        meter, outcomes = SpeedMeter(interval), []
        for outcome, seconds in stream(SerialExecutor(), plan):
            outcomes.append(outcome)
            meter.record(seconds)
        return PassResult.collect(outcomes, meter)

    def warm_up(self, scratch: str) -> None:
        self.run_pass(self.plan(0)[:1], scratch)


class SmrCommandStream(Workload):
    """Multi-decree Modified Paxos shaped like E9: three command-stream cases at n = 9."""

    name = "smr-command-stream"
    n = 9
    # E9's stream length.  A run costs ~0.1 ms per event and events grow with
    # the stream, so 200 commands take ~27 s a run on a 2-CPU container.
    commands = 30
    # 12 runs a pass.  The two smr-stable cases do the same work on every seed,
    # so the 90th percentile is a stable run's time, not one seed's luck.
    seeds = 4

    def plan(self, seed: int) -> List[SmrTask]:
        params = default_experiment_params()
        n, commands = self.n, self.commands
        tasks = []
        for sim_seed in sim_seeds(self.name, seed, self.seeds):
            stable = {"n": n, "params": params, "seed": sim_seed}
            chaos = {"n": n, "params": params, "ts": 10.0, "seed": sim_seed}
            # The fault plan is seeded, so the first survivor is known up front.
            survivor = default_workload_registry().create("smr-chaos", **chaos).deciders()[0]
            tasks += [
                SmrTask(workload="smr-stable", workload_kwargs=stable,
                        schedule=ScheduleSpec(num_commands=commands, start=10.0, interval=0.7,
                                              target_pid=n - 1),
                        tags={"case": "leader-submitted", "seed": sim_seed}),
                SmrTask(workload="smr-stable", workload_kwargs=stable,
                        schedule=ScheduleSpec(num_commands=commands, start=10.0, interval=0.7,
                                              target_pid=0),
                        tags={"case": "follower-submitted", "seed": sim_seed}),
                SmrTask(workload="smr-chaos", workload_kwargs=chaos,
                        schedule=ScheduleSpec(num_commands=commands, start=1.0, interval=0.8,
                                              target_pid=survivor),
                        tags={"case": "chaos", "seed": sim_seed}),
            ]
        return tasks

    def run_pass(self, plan: List[SmrTask], scratch: str,
                 interval: float = SAMPLE_INTERVAL) -> PassResult:
        executor = SerialExecutor()
        meter, outcomes = SpeedMeter(interval), []
        for task in plan:
            began = process_time()
            try:
                outcome = run_smr_tasks([task], executor=executor)[0].outcome
            except Exception as error:  # a failed run is counted, not fatal
                outcome = error
            seconds = process_time() - began
            outcomes.append(outcome)
            meter.record(seconds)
        return PassResult.collect(outcomes, meter)

    def warm_up(self, scratch: str) -> None:
        task = self.plan(0)[0]
        short = dataclasses.replace(task.schedule, num_commands=5)
        self.run_pass([dataclasses.replace(task, schedule=short)], scratch)


class _TimedJsonlStore(JsonlStore):
    """A JsonlStore that times each run, from the previous put to its own.

    The first run's time also covers ``run_experiment``'s set-up before it.
    """

    def __init__(self, path: str, meter: SpeedMeter) -> None:
        super().__init__(path)
        self.meter = meter
        self.began = process_time()

    def put(self, record: Any) -> None:
        super().put(record)
        self.meter.record(process_time() - self.began)
        self.began = process_time()


class CampaignResume(Workload):
    """The E8 grid at small n into a fresh JsonlStore, then resumed from it."""

    name = "campaign-resume"
    ns = (5, 9)
    # 6 protocol/workload pairs x 2 n x 16 seeds = 192 runs a pass.  The slow
    # runs are a few long chaos runs whose length depends on the seed, so
    # more seeds put more of them in the slow-run band.
    seeds = 16
    chaos_protocols = ("modified-paxos", "modified-b-consensus", "traditional-paxos",
                       "rotating-coordinator")
    adversarial = (("traditional-paxos", "obsolete-ballots"),
                   ("rotating-coordinator", "coordinator-crash"))

    def plan(self, seed: int) -> List[ExperimentSpec]:
        params = default_experiment_params()
        seeds = sim_seeds(self.name, seed, self.seeds)
        chaos = ExperimentSpec(
            workload="partitioned-chaos", protocols=self.chaos_protocols, seeds=seeds,
            base={"params": params, "ts": 8.0}, grid={"n": self.ns}, tags={"case": "chaos"},
        )
        adversarial = [
            ExperimentSpec(
                workload=workload, protocols=(protocol,), seeds=seeds, base={"params": params},
                grid={"n": self.ns}, tags={"case": "adversarial"},
            )
            for protocol, workload in self.adversarial
        ]
        return [chaos, *adversarial]

    def runs(self, plan: List[ExperimentSpec]) -> int:
        return sum(len(spec.tasks()) for spec in plan)

    def run_pass(self, plan: List[ExperimentSpec], scratch: str,
                 interval: float = SAMPLE_INTERVAL) -> PassResult:
        directory = tempfile.mkdtemp(prefix="campaign-", dir=scratch)
        try:
            return self._write_then_resume(plan, os.path.join(directory, "runs.jsonl"), interval)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _write_then_resume(self, plan: List[ExperimentSpec], path: str,
                           interval: float) -> PassResult:
        runs = self.runs(plan)
        meter = SpeedMeter(interval)
        store = _TimedJsonlStore(path, meter)
        try:
            written: Any = run_experiment(plan, executor=SerialExecutor(), store=store).rows
        except Exception as error:  # the campaign stops at its first failing run
            written = error
        finally:
            store.close()
        if isinstance(written, Exception):
            result = PassResult()
            for _ in range(runs):
                result.add(written, None)
            return result
        result = PassResult.collect([row.outcome for row in written], meter)
        result.store_bytes = os.path.getsize(path)

        meter = SpeedMeter(interval)
        start = process_time()
        resumed = run_experiment(plan, executor=SerialExecutor(), store=path, resume=True).rows
        meter.record(process_time() - start)
        result.resume_s = meter.scaled()[0]
        if os.path.getsize(path) != result.store_bytes:
            result.errors.append("the resume pass executed runs instead of loading them")
            result.resume_digests = [None] * runs
        else:
            result.resume_digests = [gate.outcome_digest(row.outcome) for row in resumed]
        return result

    def warm_up(self, scratch: str) -> None:
        spec = dataclasses.replace(self.plan(0)[0], seeds=(1,), grid={"n": (5,)},
                                   protocols=("modified-paxos",))
        self.run_pass([spec], scratch)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (E1ChaosScaling(), SmrCommandStream(), CampaignResume())
}
