"""Human-readable reports for single runs.

The harness returns a structured :class:`repro.harness.runner.RunResult`
for every run kind; :func:`render_run_report` renders it (its ``outcome``,
check reports, and the trace for per-process detail) as text for the CLI, the
examples, and for debugging sessions ("why was this run slow?").  Stored
records of every kind get the same treatment from the one renderer
:func:`render_record_report` (the ``repro results show`` renderer): a
shared identity header and traffic footer around a kind-specific section
read from ``record.outcome`` and ``record.metrics``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.timing import decision_bound
from repro.harness.tables import render_table
from repro.smr.outcome import SmrOutcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.trace import TraceRecorder
    from repro.consensus.values import RunOutcome
    from repro.harness.runner import RunResult
    from repro.results.record import RecordBase

__all__ = [
    "render_record_report",
    "render_run_report",
]


def _decision_rows(result: "RunResult") -> List[List[object]]:
    config = result.simulator.config
    rows: List[List[object]] = []
    for pid in range(config.n):
        record = result.simulator.decisions.get(pid)
        node = result.simulator.nodes[pid]
        if record is None:
            status = node.status.value
            rows.append([f"p{pid}", "-", "-", status, node.incarnation])
        else:
            lag = record.time - config.ts
            rows.append(
                [f"p{pid}", repr(record.value), f"{lag:+.3f}", node.status.value, node.incarnation]
            )
    return rows


def _max_field(trace: "TraceRecorder", event: str, key: str) -> Optional[int]:
    """Highest integer ``key`` over the trace's ``event`` rows (None if none)."""
    values = [record.fields.get(key) for record in trace.filter(event=event)]
    values = [value for value in values if isinstance(value, int)]
    return max(values) if values else None


def render_run_report(result: "RunResult") -> str:
    """Render one finished run, of either kind, as a multi-section text report."""
    if isinstance(result.outcome, SmrOutcome):
        return _render_smr_run_report(result)
    config = result.simulator.config
    params = config.params
    stats = result.simulator.network.monitor.stats
    lines: List[str] = []

    lines.append(f"run report: protocol={result.protocol} scenario={result.scenario.name}")
    lines.append(
        f"  model: n={config.n} ts={config.ts:g} seed={config.seed} {params.describe()}"
    )
    if result.scenario.notes:
        lines.append(f"  workload: {result.scenario.notes}")
    lines.append(f"  faults: {result.scenario.fault_plan.describe()}")
    lines.append("")

    lines.append("decisions (lag is relative to TS):")
    lines.append(
        render_table(
            ["process", "decided value", "lag after TS", "status", "incarnation"],
            _decision_rows(result),
            indent="  ",
        )
    )
    lines.append("")

    lag = result.max_lag_after_ts()
    bound = decision_bound(params)
    lag_text = f"{lag:.3f} delta" if lag is not None else "n/a (not everyone decided)"
    lines.append(f"worst decision lag after TS : {lag_text}")
    lines.append(f"modified-paxos bound        : {bound:.3f} delta")
    lines.append(
        "safety                      : "
        + ("OK" if result.safety.valid else "; ".join(result.safety.violations))
    )
    for name, report in sorted(result.invariants.items()):
        status = "OK" if report.ok else "; ".join(report.violations)
        lines.append(f"invariant {name:18s}: {status} ({report.checked} checks)")
    lines.append("")

    lines.append(
        f"messages: sent={stats.sent} delivered={stats.delivered} dropped={stats.dropped} "
        f"to-crashed={stats.to_crashed} (pre-TS {stats.sent_pre_ts}, post-TS {stats.sent_post_ts})"
    )
    by_kind = ", ".join(f"{kind}={count}" for kind, count in sorted(stats.by_kind.items()))
    lines.append(f"by kind : {by_kind}")
    trace = result.simulator.trace
    max_session = _max_field(trace, "session_enter", "session")
    if max_session is not None:
        lines.append(f"highest session reached     : {max_session}")
    max_round = _max_field(trace, "round_enter", "round")
    if max_round is not None:
        lines.append(f"highest round reached       : {max_round}")
    outcome = result.outcome
    lines.append(f"simulated time: {outcome.duration:.3f}  events: {outcome.extra['events']}")
    return "\n".join(lines)


def _command_section(outcome: SmrOutcome) -> List[str]:
    """The command table and the latency/agreement summary of one SMR outcome."""
    expected = set(outcome.expected_replicas)
    rows: List[List[object]] = []
    for record in outcome.commands.values():
        submitter = record.submitter_latency
        global_ = record.global_latency
        learned = len(expected & set(record.learned_times)) if expected else 0
        rows.append(
            [
                record.command_id,
                f"p{record.origin}",
                f"{record.submit_time:.3f}",
                f"{submitter:.3f}" if submitter is not None else "-",
                f"{global_:.3f}" if global_ is not None else "-",
                f"{learned}/{len(expected)}",
            ]
        )
    headers = ["command", "origin", "submitted", "submitter latency", "global latency", "learned by"]
    lines = ["commands:", render_table(headers, rows, indent="  "), ""]
    for label, value in (
        ("worst submitter latency", outcome.worst_submitter_latency()),
        ("worst global latency", outcome.worst_global_latency()),
    ):
        text = f"{value:.3f}" if value is not None else "n/a"
        lines.append(f"{label:28s}: {text}")
    lines.append(f"{'replicas agree':28s}: {'OK' if outcome.replicas_agree else 'DIVERGED'}")
    unlearned = outcome.unlearned_command_ids()
    if unlearned:
        lines.append(f"{'unlearned commands':28s}: {', '.join(unlearned)}")
    lines.append(
        f"{'learned prefixes':28s}: "
        + " ".join(f"p{pid}={length}" for pid, length in sorted(outcome.prefix_lengths.items()))
    )
    return lines


def _render_smr_run_report(result: "RunResult") -> str:
    config = result.scenario.config
    lines = [
        f"smr run report: multi-paxos-smr scenario={result.scenario.name} "
        f"({result.builder.schedule.describe()})",
        f"  model: n={config.n} ts={config.ts:g} seed={config.seed} "
        f"{config.params.describe()}",
        f"  faults: {result.scenario.fault_plan.describe()}",
        "",
        *_command_section(result.outcome),
        f"log consistency checks      : {result.outcome.consistency_checks}",
    ]
    if not result.safety.valid:
        lines.append(f"safety                      : {'; '.join(result.safety.violations)}")
    for name, report in sorted(result.invariants.items()):
        status = "OK" if report.ok else "; ".join(report.violations)
        lines.append(f"invariant {name:18s}: {status} ({report.checked} checks)")
    lines.append(f"simulated time: {result.outcome.duration:.3f}")
    return "\n".join(lines)


def _decision_section(outcome: "RunOutcome") -> List[str]:
    """The decision table and the lag/safety summary of one stored run outcome."""
    decided = {decision.pid: decision for decision in outcome.decisions}
    rows: List[List[object]] = []
    for pid in range(outcome.n):
        decision = decided.get(pid)
        if decision is None:
            status = "undecided" if pid in outcome.undecided_pids else "not expected"
            rows.append([f"p{pid}", "-", "-", status])
        else:
            rows.append(
                [f"p{pid}", repr(decision.value), f"{decision.after_stability:+.3f}", "decided"]
            )
    lag = outcome.extra.get("max_lag_after_ts")
    lag_text = f"{lag:.3f} ({lag / outcome.delta:.3f} delta)" if lag is not None else "n/a"
    safety = outcome.extra.get("safety_valid")
    return [
        "decisions (lag is relative to TS):",
        render_table(["process", "decided value", "lag after TS", "status"], rows, indent="  "),
        "",
        f"worst decision lag after TS : {lag_text}",
        f"safety                      : {'OK' if safety else safety}",
    ]


# The kind-specific middle of a stored-record report, read from the outcome.
_RECORD_SECTIONS = {"run": _decision_section, "smr": _command_section}


def render_record_report(record: "RecordBase") -> str:
    """Render one stored record, of any kind, as a multi-section report.

    The stored counterpart of :func:`render_run_report`: everything here comes
    from the record's serialized data alone, so any store can be inspected
    without re-running (or even being able to re-run) the task.  The identity
    header and the traffic footer are shared; the middle section depends on the kind.
    """
    outcome = record.outcome
    lines = [
        f"{record.kind} record: {record.key}",
        f"  identity: protocol={record.protocol} workload={record.workload} "
        f"n={record.n} ts={record.ts:g} delta={record.delta:g} seed={record.seed} "
        f"(schema v{record.schema_version})",
    ]
    if record.tags:
        tag_text = " ".join(f"{key}={value!r}" for key, value in sorted(record.tags.items()))
        lines.append(f"  tags: {tag_text}")
    environment = record.environment
    if environment:
        name = environment.get("name", "")
        adversary = environment.get("adversary", {}).get("kind", "?")
        faults = environment.get("faults", {}).get("kind", "none")
        prefix = f"{name}: " if name else ""
        lines.append(f"  environment: {prefix}adversary={adversary} faults={faults}")
    lines.append("")
    section = _RECORD_SECTIONS.get(record.kind)
    if section is not None:
        lines.extend(section(outcome))
    else:  # a kind without a section lists its metrics digest
        lines.extend(f"{name:28s}: {value}" for name, value in sorted(record.metrics.items()))
    lines.append(
        f"messages: sent={outcome.messages_sent} delivered={outcome.messages_delivered}  "
        f"simulated time: {outcome.duration:.3f}"
    )
    return "\n".join(lines)
