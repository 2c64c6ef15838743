"""Analysis: traces, metrics, invariants, statistics, and reporting."""

from repro.analysis.invariants import (
    InvariantReport,
    check_rotating_round_entry,
    check_session_entry_rule,
    check_single_session_leadership,
)
from repro.analysis.metrics import compute_run_metrics, max_lag_after_ts, restart_recovery_lags
from repro.analysis.stats import Summary, confidence_interval, summarize
from repro.analysis.timeline import ProcessTimeline, extract_timelines, render_timelines
from repro.analysis.trace import TraceEvent, TraceRecorder

__all__ = [
    "InvariantReport",
    "ProcessTimeline",
    "Summary",
    "TraceEvent",
    "TraceRecorder",
    "check_rotating_round_entry",
    "check_session_entry_rule",
    "check_single_session_leadership",
    "compute_run_metrics",
    "confidence_interval",
    "extract_timelines",
    "max_lag_after_ts",
    "render_timelines",
    "restart_recovery_lags",
    "summarize",
]
