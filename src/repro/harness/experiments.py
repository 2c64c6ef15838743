"""Experiment definitions E1–E9.

The paper contains no numbered tables or figures — its evaluation is the
timing analysis of Sections 2–5.  Each function here regenerates one of the
analysis' claims as a measured table (one function per experiment), by
declaring an :class:`~repro.harness.experiment.ExperimentSpec` over the
workloads in :mod:`repro.workloads` (resolved by catalogue name) and the
protocols in :mod:`repro.core` / :mod:`repro.consensus`, executing it
through an :class:`~repro.harness.executors.Executor` (pass ``executor=``
to fan runs out across processes), and aggregating the resulting
:class:`~repro.harness.experiment.ResultSet` into an
:class:`~repro.harness.tables.ExperimentTable`.

Each function's size defaults (process counts, seeds, sweeps) are the full
campaign scale; :data:`repro.harness.campaign.SMOKE` lists the smaller sizes
the smoke campaign passes instead, and tests pass their own.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from repro.core.timing import (
    decision_bound,
    restart_decision_bound,
    rotating_coordinator_worst_case,
    traditional_paxos_worst_case,
)
from repro.errors import ExperimentError
from repro.harness.executors import Executor
from repro.harness.experiment import ExperimentSpec, lag_delta, run_experiment
from repro.harness.tables import ExperimentTable
from repro.params import TimingParams

__all__ = [
    "default_experiment_params",
    "experiment_e1_modified_paxos_scaling",
    "experiment_e2_traditional_obsolete",
    "experiment_e3_rotating_coordinator",
    "experiment_e4_modified_bconsensus",
    "experiment_e5_restart_recovery",
    "experiment_e6_epsilon_tradeoff",
    "experiment_e7_stable_case",
    "experiment_e8_protocol_comparison",
    "experiment_e9_smr_stable_case",
]


def default_experiment_params(epsilon: float = 0.5) -> TimingParams:
    """Timing constants used by the experiments (δ = 1, ρ = 1%, ε = 0.5δ)."""
    return TimingParams(delta=1.0, rho=0.01, epsilon=epsilon)


# --------------------------------------------------------------------------- E1
def experiment_e1_modified_paxos_scaling(
    ns: Sequence[int] = (3, 5, 7, 9, 13, 17, 21, 25, 31),
    seeds: Iterable[int] = (1, 2, 3),
    params: Optional[TimingParams] = None,
    ts_factor: float = 10.0,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C1: Modified Paxos decides within the analytic bound, independently of N."""
    params = params if params is not None else default_experiment_params()
    bound = decision_bound(params) / params.delta
    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-paxos",),
        seeds=tuple(seeds),
        base={"params": params, "ts": ts_factor * params.delta},
        grid={"n": tuple(ns)},
    )
    results = run_experiment(spec, executor=executor, store=store, resume=resume)
    return ExperimentTable.from_result_set(
        results,
        experiment="E1",
        title="Modified Paxos: decision lag after TS vs. N (partitioned chaos before TS)",
        group=("n",),
        columns={
            "runs": len,
            "mean_lag_delta": lambda subset: subset.mean(lag_delta),
            "max_lag_delta": lambda subset: subset.max(lag_delta),
            "bound_delta": lambda subset: bound,
            "undecided": lambda subset: subset.undecided_count(),
        },
        notes=(
            f"paper bound = eps + 3*tau + 5*delta = {bound:.1f} delta; the lag column should "
            "stay flat in N and below the bound"
        ),
    )


# --------------------------------------------------------------------------- E2
def experiment_e2_traditional_obsolete(
    ns: Sequence[int] = (5, 9, 13, 17, 21, 25, 31),
    seeds: Iterable[int] = (1, 2),
    params: Optional[TimingParams] = None,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C2: traditional Paxos needs O(Nδ) when obsolete high ballots surface after TS."""
    params = params if params is not None else default_experiment_params()
    modified_bound = decision_bound(params) / params.delta

    def obsolete_k(n: int) -> int:
        # One obsolete ballot per crashed process: ceil(N/2) - 1 == n - majority.
        return n - (n // 2 + 1)

    spec = ExperimentSpec(
        workload="obsolete-ballots",
        protocols=("traditional-paxos",),
        seeds=tuple(seeds),
        base={"params": params},
        grid={"n": tuple(ns)},
        bind=lambda point: {"n": point["n"], "num_obsolete": obsolete_k(point["n"])},
    )
    results = run_experiment(spec, executor=executor, store=store, resume=resume)
    return ExperimentTable.from_result_set(
        results,
        experiment="E2",
        title="Traditional Paxos: decision lag after TS vs. N under obsolete high ballots",
        group=("n",),
        columns={
            "obsolete_k": lambda subset: obsolete_k(subset.rows[0].tag("n")),
            "max_lag_delta": lambda subset: subset.max(lag_delta),
            "model_delta": lambda subset: traditional_paxos_worst_case(
                params, obsolete_k(subset.rows[0].tag("n"))
            )
            / params.delta,
            "modified_bound_delta": lambda subset: modified_bound,
        },
        notes=(
            "obsolete_k = ceil(N/2) - 1 obsolete ballots released one per ballot attempt; "
            "model = (2k + 4) delta; contrast with the flat Modified Paxos bound"
        ),
    )


# --------------------------------------------------------------------------- E3
def experiment_e3_rotating_coordinator(
    n: int = 21,
    faulty_counts: Optional[Sequence[int]] = None,
    seeds: Iterable[int] = (1, 2),
    params: Optional[TimingParams] = None,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C3: the rotating-coordinator baseline pays one round timeout per dead coordinator."""
    params = params if params is not None else default_experiment_params()
    max_faulty = n - (n // 2 + 1)
    if faulty_counts is None:
        step = max(1, max_faulty // 4)
        faulty_counts = list(range(0, max_faulty + 1, step))
        if faulty_counts[-1] != max_faulty:
            faulty_counts.append(max_faulty)
    for f in faulty_counts:
        if f > max_faulty:
            raise ExperimentError(f"cannot crash {f} coordinators with n={n}")
    modified_bound = decision_bound(params) / params.delta
    spec = ExperimentSpec(
        workload="coordinator-crash",
        protocols=("rotating-coordinator",),
        seeds=tuple(seeds),
        base={"n": n, "params": params},
        grid={"faulty_f": tuple(faulty_counts)},
        bind=lambda point: {"num_faulty": point["faulty_f"]},
        tags={"n": n},
    )
    results = run_experiment(spec, executor=executor, store=store, resume=resume)
    return ExperimentTable.from_result_set(
        results,
        experiment="E3",
        title=f"Rotating coordinator (n={n}): decision lag after TS vs. crashed coordinators",
        group=("n", "faulty_f"),
        columns={
            "max_lag_delta": lambda subset: subset.max(lag_delta),
            "model_delta": lambda subset: rotating_coordinator_worst_case(
                params, subset.rows[0].tag("faulty_f")
            )
            / params.delta,
            "modified_bound_delta": lambda subset: modified_bound,
        },
        notes="model = (4f + 4) delta (one 4-delta round timeout per crashed coordinator)",
    )


# --------------------------------------------------------------------------- E4
def experiment_e4_modified_bconsensus(
    ns: Sequence[int] = (3, 5, 7, 9, 13, 17, 21),
    seeds: Iterable[int] = (1, 2),
    params: Optional[TimingParams] = None,
    ts_factor: float = 10.0,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C5: Modified B-Consensus also decides within O(δ) of TS, independently of N."""
    params = params if params is not None else default_experiment_params()
    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-b-consensus",),
        seeds=tuple(seeds),
        base={"params": params, "ts": ts_factor * params.delta},
        grid={"n": tuple(ns)},
    )
    results = run_experiment(spec, executor=executor, store=store, resume=resume)
    return ExperimentTable.from_result_set(
        results,
        experiment="E4",
        title="Modified B-Consensus: decision lag after TS vs. N (partitioned chaos before TS)",
        group=("n",),
        columns={
            "runs": len,
            "mean_lag_delta": lambda subset: subset.mean(lag_delta),
            "max_lag_delta": lambda subset: subset.max(lag_delta),
            "undecided": lambda subset: subset.undecided_count(),
        },
        notes=(
            "the paper gives no closed-form bound for this variant, only that the maximum "
            "delay is about the same as Modified Paxos; the lag should stay flat in N"
        ),
    )


# --------------------------------------------------------------------------- E5
def experiment_e5_restart_recovery(
    n: int = 9,
    offsets: Sequence[float] = (5.0, 20.0, 40.0, 80.0),
    seeds: Iterable[int] = (1, 2),
    params: Optional[TimingParams] = None,
    protocol: str = "modified-paxos",
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C4: a process restarting after TS decides within O(δ) of its restart."""
    params = params if params is not None else default_experiment_params()
    bound = restart_decision_bound(params) / params.delta
    table = ExperimentTable(
        experiment="E5",
        title=f"{protocol}: recovery lag of processes restarting after TS (n={n})",
        headers=["restart_offset_delta", "runs", "mean_recovery_delta", "max_recovery_delta",
                 "bound_delta"],
        notes=f"bound = tau + 5*delta = {bound:.1f} delta once the post-TS session cadence runs",
    )
    spec = ExperimentSpec(
        workload="restarts",
        protocols=(protocol,),
        seeds=tuple(seeds),
        base={"n": n, "params": params, "restart_offsets": list(offsets)},
    )
    results = run_experiment(spec, executor=executor, store=store, resume=resume)
    per_offset: dict[float, list[float]] = {offset: [] for offset in offsets}
    for row in results:
        lags = row.outcome.extra["restart_lags"]
        # Victims restart in offset order (the scenario schedules them that way).
        restarted_pids = [pid for _, pid in row.outcome.extra["restart_events"]]
        for offset, pid in zip(offsets, restarted_pids):
            if pid in lags:
                per_offset[offset].append(lags[pid] / params.delta)
    for offset in offsets:
        values = per_offset[offset]
        table.add_row(
            restart_offset_delta=offset,
            runs=len(values),
            mean_recovery_delta=(sum(values) / len(values)) if values else None,
            max_recovery_delta=max(values) if values else None,
            bound_delta=bound,
        )
    return table


# --------------------------------------------------------------------------- E6
def experiment_e6_epsilon_tradeoff(
    n: int = 9,
    epsilons: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0),
    seeds: Iterable[int] = (1, 2),
    base_params: Optional[TimingParams] = None,
    ts_factor: float = 8.0,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C6: the ε keep-alive trades steady-state message rate against recovery latency."""
    base_params = base_params if base_params is not None else default_experiment_params()

    def params_for(epsilon: float) -> TimingParams:
        return base_params.with_epsilon(epsilon * base_params.delta)

    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-paxos",),
        seeds=tuple(seeds),
        base={"n": n, "ts": ts_factor * base_params.delta},
        grid={"epsilon_delta": tuple(epsilons)},
        bind=lambda point: {"params": params_for(point["epsilon_delta"])},
    )
    results = run_experiment(spec, executor=executor, store=store, resume=resume)

    def rate_per_proc_per_delta(row) -> Optional[float]:
        rate = row.outcome.extra.get("post_ts_send_rate")
        if rate is None:
            return None
        return rate / n * base_params.delta

    return ExperimentTable.from_result_set(
        results,
        experiment="E6",
        title=f"Modified Paxos (n={n}): keep-alive interval vs. messages and decision lag",
        group=("epsilon_delta",),
        columns={
            "max_lag_delta": lambda subset: subset.max(lag_delta),
            "bound_delta": lambda subset: decision_bound(
                params_for(subset.rows[0].tag("epsilon_delta"))
            )
            / base_params.delta,
            "post_ts_msgs_per_proc_per_delta": lambda subset: subset.mean(
                rate_per_proc_per_delta
            ),
            "total_messages": lambda subset: subset.total(
                lambda row: row.outcome.messages_sent
            )
            // max(1, len(subset)),
        },
        notes=(
            "larger epsilon -> fewer keep-alive messages but a larger bound (tau grows once "
            "2*delta + eps exceeds sigma) and typically a larger measured lag"
        ),
    )


# --------------------------------------------------------------------------- E7
def experiment_e7_stable_case(
    n: int = 9,
    protocols: Sequence[str] = (
        "modified-paxos",
        "traditional-paxos",
        "rotating-coordinator",
        "modified-b-consensus",
    ),
    seeds: Iterable[int] = (1, 2, 3),
    params: Optional[TimingParams] = None,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C6: with a stable, failure-free system all protocols decide in a few message delays."""
    params = params if params is not None else default_experiment_params()
    spec = ExperimentSpec(
        workload="stable",
        protocols=tuple(protocols),
        seeds=tuple(seeds),
        base={"n": n, "params": params},
    )
    results = run_experiment(spec, executor=executor, store=store, resume=resume)
    return ExperimentTable.from_result_set(
        results,
        experiment="E7",
        title=f"Stable failure-free system from t=0 (n={n}): time to global decision",
        group=("protocol",),
        columns={
            "runs": lambda subset: len(subset.values(lag_delta)),
            "mean_decision_delta": lambda subset: subset.mean(lag_delta),
            "max_decision_delta": lambda subset: subset.max(lag_delta),
        },
        notes=(
            "delays are measured from t=0 in units of delta; the paper's 3-message-delay "
            "figure assumes phase 1 is pre-executed, which this cold start does not do, so "
            "Paxos-family protocols take about one extra delay; the B-Consensus oracle adds "
            "its 2*delta hold-back"
        ),
    )


# --------------------------------------------------------------------------- E8
_CHAOS_PROTOCOLS = (
    "modified-paxos",
    "modified-b-consensus",
    "traditional-paxos",
    "rotating-coordinator",
)


def experiment_e8_protocol_comparison(
    ns: Sequence[int] = (5, 9, 15),
    seeds: Iterable[int] = (1,),
    params: Optional[TimingParams] = None,
    ts_factor: float = 8.0,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """Every protocol under one chaos workload, and each baseline under its worst case.

    Two views are combined: every protocol under the *same*
    partitioned-chaos workload (how long after ``TS`` each needs in a
    "generic bad past"), and the two baselines under their own worst-case
    adversaries (obsolete high ballots for traditional Paxos, crashed
    coordinators for the rotating coordinator), which is where the
    ``O(Nδ)`` behaviour shows.  The three specs run as one task batch, so a
    parallel executor schedules every run across its workers at once.  The
    modified algorithms should stay flat in ``N`` while the baselines'
    adversarial columns grow roughly linearly.
    """
    params = params if params is not None else default_experiment_params()
    bound = decision_bound(params) / params.delta

    chaos = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=_CHAOS_PROTOCOLS,
        seeds=tuple(seeds),
        base={"params": params, "ts": ts_factor * params.delta},
        grid={"n": tuple(ns)},
        tags={"case": "chaos"},
    )
    adversarial = [
        ExperimentSpec(
            workload=workload,
            protocols=(protocol,),
            seeds=tuple(seeds),
            base={"params": params},
            grid={"n": tuple(ns)},
            tags={"case": "adversarial"},
        )
        for protocol, workload in (
            ("traditional-paxos", "obsolete-ballots"),
            ("rotating-coordinator", "coordinator-crash"),
        )
    ]
    results = run_experiment(
        [chaos, *adversarial], executor=executor, store=store, resume=resume
    )

    table = ExperimentTable(
        experiment="E8",
        title="Protocol comparison: worst post-TS decision lag (delta units)",
        headers=["protocol", "n", "chaos_lag_delta", "adversarial_lag_delta", "undecided"],
        notes=(
            "chaos = identical partitioned-chaos workload for every protocol; adversarial = "
            "protocol-specific worst case (obsolete ballots for traditional Paxos, crashed "
            f"coordinators for the rotating coordinator); Modified Paxos bound = {bound:.1f} delta"
        ),
    )
    for protocol in _CHAOS_PROTOCOLS:
        for n in ns:
            chaos_runs = results.filter(case="chaos", protocol=protocol, n=n)
            adversarial_runs = results.filter(case="adversarial", protocol=protocol, n=n)
            table.add_row(
                protocol=protocol,
                n=n,
                chaos_lag_delta=chaos_runs.max(lag_delta),
                adversarial_lag_delta=adversarial_runs.max(lag_delta),
                undecided=len(chaos_runs) - len(chaos_runs.values(lag_delta)),
            )
    return table


# --------------------------------------------------------------------------- E9
def _check_smr_case(case: str, outcome: Any) -> None:
    """Fail loudly when an SMR case produced an incomplete or diverged run."""
    if not outcome.replicas_agree:
        raise ExperimentError(f"{case}: replica state machines diverged")
    unlearned = outcome.unlearned_command_ids()
    if unlearned:
        raise ExperimentError(
            f"{case}: commands never learned by every expected replica: "
            f"{', '.join(unlearned)}"
        )


def _smr_latencies(case: str, outcome: Any) -> tuple:
    """The (submitter, global) worst latencies, or a loud error naming gaps.

    Guards the latent ``None / delta`` crash: an outcome with no completed
    command returns ``None`` latencies, which must surface as an
    :class:`~repro.errors.ExperimentError` naming the unlearned command ids,
    never as a ``TypeError`` inside the table arithmetic.
    """
    submitter = outcome.worst_submitter_latency()
    global_ = outcome.worst_global_latency()
    if submitter is None or global_ is None:
        unlearned = outcome.unlearned_command_ids()
        detail = ", ".join(unlearned) if unlearned else "no command was ever submitted"
        raise ExperimentError(
            f"{case}: no per-command latency could be measured; "
            f"unlearned commands: {detail}"
        )
    return submitter, global_


def experiment_e9_smr_stable_case(
    n: int = 9,
    stable_commands: int = 30,
    chaos_commands: int = 10,
    params: Optional[TimingParams] = None,
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    resume: bool = False,
) -> ExperimentTable:
    """C6 (multi-instance): stable-case commands commit in a few message delays.

    Uses the SMR extension (:mod:`repro.smr`): one ballot and one phase 1
    cover the whole log, so during stable periods a command costs a single
    phase-2 round (plus one forwarding hop when submitted at a follower).

    The three cases are declarative :class:`~repro.harness.executors.SmrTask`\\ s
    over the catalogue's ``smr-stable`` / ``smr-chaos`` workloads, executed
    through :func:`~repro.harness.experiment.run_smr_tasks` — the same
    executor/store/resume pipeline as every single-decree experiment, so
    ``executor=`` parallelizes the cases and ``store=``/``resume=`` cache
    them under their content keys.
    """
    from repro.harness.executors import SmrTask
    from repro.harness.experiment import run_smr_tasks
    from repro.smr.workload import ScheduleSpec
    from repro.workloads.registry import WORKLOADS

    params = params if params is not None else default_experiment_params()
    delta = params.delta

    # The chaos schedule targets the first surviving replica; the fault plan
    # is seeded, so resolving it here and inside a worker agree.
    chaos_kwargs = {"n": n, "params": params, "ts": 10.0 * delta, "seed": 3}
    survivors = WORKLOADS.create("smr-chaos", **chaos_kwargs).deciders()

    tasks = [
        SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": n, "params": params, "seed": 1},
            schedule=ScheduleSpec(num_commands=stable_commands, start=10.0, interval=0.7,
                                  target_pid=n - 1),
            tags={"case": "leader-submitted", "seed": 1},
        ),
        SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": n, "params": params, "seed": 2},
            schedule=ScheduleSpec(num_commands=stable_commands, start=10.0, interval=0.7,
                                  target_pid=0),
            tags={"case": "follower-submitted", "seed": 2},
        ),
        SmrTask(
            workload="smr-chaos",
            workload_kwargs=chaos_kwargs,
            schedule=ScheduleSpec(num_commands=chaos_commands, start=1.0, interval=0.8,
                                  target_pid=survivors[0]),
            tags={"case": "chaos", "seed": 3},
        ),
    ]
    rows = run_smr_tasks(tasks, executor=executor, store=store, resume=resume)
    by_case = {row.tag("case"): row.outcome for row in rows}

    table = ExperimentTable(
        experiment="E9",
        title=f"Multi-decree Modified Paxos (SMR, n={n}): per-command latency",
        headers=[
            "case",
            "commands",
            "worst_submitter_latency_delta",
            "worst_global_latency_delta",
        ],
        notes=(
            "stable cases measure the phase-1-pre-executed fast path (leader ~3 message "
            "delays, follower +1 forwarding delay); the chaos case measures commands "
            "submitted before TS and replicated once the system stabilizes"
        ),
    )

    for case, label in (
        ("leader-submitted", "stable, submitted at leader"),
        ("follower-submitted", "stable, submitted at follower"),
    ):
        outcome = by_case[case]
        _check_smr_case(case, outcome)
        submitter, global_ = _smr_latencies(case, outcome)
        table.add_row(
            case=label,
            commands=stable_commands,
            worst_submitter_latency_delta=submitter / delta,
            worst_global_latency_delta=global_ / delta,
        )

    chaos_outcome = by_case["chaos"]
    _check_smr_case("chaos", chaos_outcome)
    worst_after_ts = chaos_outcome.worst_learned_after()
    if worst_after_ts is None:
        raise ExperimentError(
            "chaos: no per-command latency could be measured; unlearned commands: "
            + (", ".join(chaos_outcome.unlearned_command_ids()) or "no command was submitted")
        )
    table.add_row(
        case="pre-TS submissions, learned after TS",
        commands=chaos_commands,
        worst_submitter_latency_delta=None,
        worst_global_latency_delta=worst_after_ts / delta,
    )
    return table
