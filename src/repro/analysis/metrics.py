"""Run metrics: condense a finished run into its :class:`RunOutcome`.

The central quantity of the whole reproduction is the *decision lag after
stabilization*: for each process, when did it decide relative to ``TS``
(clamped at zero for processes that managed to decide earlier), and what is
the worst lag over the processes that were supposed to decide
(:func:`max_lag_after_ts`).  :func:`compute_run_metrics` builds a run's one
condensed outcome at the end of the run: decisions, proposals, traffic, and
the ``extra`` entries the experiment tables aggregate (the lag, the safety
verdict, restart recovery lags for experiment E5, the post-``TS`` send
rate).  Everything downstream — tables, records, reports — reads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional

from repro.consensus.values import DecisionOutcome, RunOutcome

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.sim.simulator import Simulator
    from repro.workloads.scenario import Scenario

__all__ = ["compute_run_metrics", "max_lag_after_ts", "restart_recovery_lags"]


def max_lag_after_ts(
    decision_times: Mapping[int, float], ts: float, pids: Iterable[int]
) -> Optional[float]:
    """Worst decision lag after ``ts`` over ``pids``.

    A process that decided before ``ts`` contributes 0 (it cannot make the
    post-stability lag worse).  Returns None if any of ``pids`` never
    decided (the lag is censored by the simulation horizon), or if ``pids``
    is empty.
    """
    lags = []
    for pid in pids:
        if pid not in decision_times:
            return None
        lags.append(max(0.0, decision_times[pid] - ts))
    return max(lags) if lags else None


def compute_run_metrics(
    simulator: "Simulator",
    scenario: "Scenario",
    protocol: str,
    safety_valid: bool,
) -> RunOutcome:
    """Condense a finished single-decree run into its :class:`RunOutcome`.

    ``safety_valid`` is the verdict of the safety check, which the caller
    runs first; the expected deciders and the resolved environment come from
    ``scenario``.
    """
    config = simulator.config
    expected = sorted(scenario.deciders())
    decision_times = {pid: record.time for pid, record in simulator.decisions.items()}
    stats = simulator.network.monitor.stats
    # One trace scan to find restarts; the per-pid lag scans only run when a
    # restart actually happened (most workloads have none).
    restart_events = sorted(
        (event.time, event.pid)
        for event in simulator.trace.filter(event="restart", category="node")
    )
    # The resolved environment travels with the outcome, so a result row is
    # reproducible from its own metadata alone.
    extra: Dict[str, object] = {
        "events": simulator.events_processed,
        "environment": scenario.environment.to_dict(),
        "max_lag_after_ts": max_lag_after_ts(decision_times, config.ts, expected),
        "safety_valid": safety_valid,
        "restart_events": restart_events,
        "restart_lags": restart_recovery_lags(simulator) if restart_events else {},
        "post_ts_send_rate": simulator.network.monitor.post_ts_send_rate(
            config.ts, simulator.now()
        ),
    }
    return RunOutcome(
        protocol=protocol,
        n=config.n,
        ts=config.ts,
        delta=config.params.delta,
        seed=config.seed,
        decisions=[
            DecisionOutcome(
                pid=pid,
                value=record.value,
                time=record.time,
                after_stability=record.time - config.ts,
            )
            for pid, record in sorted(simulator.decisions.items())
        ],
        proposals=dict(simulator.proposals),
        undecided_pids=[pid for pid in expected if pid not in decision_times],
        messages_sent=stats.sent,
        messages_delivered=stats.delivered,
        duration=simulator.now(),
        extra=extra,
    )


def restart_recovery_lags(simulator: "Simulator") -> Dict[int, float]:
    """Decision lag of each restarted process relative to its *last* restart.

    Only processes that restarted at least once and then decided are
    included.  Used by experiment E5 (restart recovery).
    """
    lags: Dict[int, float] = {}
    for pid, record in simulator.decisions.items():
        restarts = simulator.trace.filter(event="restart", category="node", pid=pid)
        restarts_before_decision = [r for r in restarts if r.time <= record.time]
        if not restarts_before_decision:
            continue
        last_restart = restarts_before_decision[-1].time
        lags[pid] = record.time - last_restart
    return lags
