"""Run metrics: the numbers the experiments report.

The central quantity of the whole reproduction is the *decision lag after
stabilization*: for each process, when did it decide relative to ``TS``
(clamped at zero for processes that managed to decide earlier), and what is
the worst lag over the processes that were supposed to decide.  On top of
that the metrics collect message counts, session/round usage, and restart
recovery lags for experiment E5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.analysis.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.sim.simulator import Simulator

__all__ = ["DecisionMetrics", "RunMetrics", "compute_run_metrics", "restart_recovery_lags"]


@dataclass
class DecisionMetrics:
    """Decision timing of one run."""

    ts: float
    decision_times: Dict[int, float] = field(default_factory=dict)
    undecided: List[int] = field(default_factory=list)

    @property
    def all_decided(self) -> bool:
        return not self.undecided

    def lag_after_ts(self, pid: int) -> Optional[float]:
        """Decision lag of one process after ``TS`` (0 if it decided earlier)."""
        if pid not in self.decision_times:
            return None
        return max(0.0, self.decision_times[pid] - self.ts)

    def max_lag_after_ts(self, pids: Optional[Iterable[int]] = None) -> Optional[float]:
        """Worst decision lag after ``TS`` over ``pids`` (default: all deciders).

        Returns None if any of the requested processes never decided (the
        lag is unbounded / censored by the simulation horizon).
        """
        targets = list(pids) if pids is not None else sorted(self.decision_times)
        lags = []
        for pid in targets:
            lag = self.lag_after_ts(pid)
            if lag is None:
                return None
            lags.append(lag)
        return max(lags) if lags else None

    def mean_lag_after_ts(self, pids: Optional[Iterable[int]] = None) -> Optional[float]:
        targets = list(pids) if pids is not None else sorted(self.decision_times)
        lags = []
        for pid in targets:
            lag = self.lag_after_ts(pid)
            if lag is None:
                return None
            lags.append(lag)
        if not lags:
            return None
        return sum(lags) / len(lags)


@dataclass
class RunMetrics:
    """Aggregate metrics of one run, ready for tables."""

    protocol: str
    n: int
    ts: float
    delta: float
    decisions: DecisionMetrics
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    sends_post_ts: int
    max_session: Optional[int] = None
    max_round: Optional[int] = None
    duration: float = 0.0
    events_processed: int = 0


def _max_field(trace: TraceRecorder, event: str, key: str) -> Optional[int]:
    values = [record.fields.get(key) for record in trace.filter(event=event)]
    values = [value for value in values if isinstance(value, int)]
    return max(values) if values else None


def compute_run_metrics(
    simulator: "Simulator",
    protocol: str,
    expected_deciders: Optional[Iterable[int]] = None,
) -> RunMetrics:
    """Extract :class:`RunMetrics` from a finished simulator."""
    config = simulator.config
    expected = sorted(expected_deciders) if expected_deciders is not None else sorted(
        simulator.nodes
    )
    decision_times = {pid: record.time for pid, record in simulator.decisions.items()}
    undecided = [pid for pid in expected if pid not in decision_times]
    decisions = DecisionMetrics(ts=config.ts, decision_times=decision_times, undecided=undecided)

    stats = simulator.network.monitor.stats
    return RunMetrics(
        protocol=protocol,
        n=config.n,
        ts=config.ts,
        delta=config.params.delta,
        decisions=decisions,
        messages_sent=stats.sent,
        messages_delivered=stats.delivered,
        messages_dropped=stats.dropped,
        sends_post_ts=stats.sent_post_ts,
        max_session=_max_field(simulator.trace, "session_enter", "session"),
        max_round=_max_field(simulator.trace, "round_enter", "round"),
        duration=simulator.now(),
        events_processed=simulator.events_processed,
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
