"""Human-readable reports for single runs.

The harness returns structured :class:`repro.harness.runner.RunResult`
objects; this module renders them as text for the CLI, the examples, and for
debugging sessions ("why was this run slow?").  Stored
:class:`~repro.results.record.RunRecord`\\ s get the same treatment via
:func:`render_record_report` (the ``repro results show`` renderer, which
dispatches to :func:`render_smr_record_report` for multi-decree records);
SMR runs render through :func:`render_smr_run_report`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.timing import decision_bound
from repro.harness.tables import render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.runner import RunResult
    from repro.results.record import RecordBase
    from repro.results.smr_record import SmrRecord
    from repro.smr.runner import SmrRunResult

__all__ = [
    "render_record_report",
    "render_run_report",
    "render_smr_record_report",
    "render_smr_run_report",
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


def render_run_report(result: "RunResult") -> str:
    """Render one finished run as a multi-section text report."""
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
    if result.metrics.max_session is not None:
        lines.append(f"highest session reached     : {result.metrics.max_session}")
    if result.metrics.max_round is not None:
        lines.append(f"highest round reached       : {result.metrics.max_round}")
    lines.append(
        f"simulated time: {result.metrics.duration:.3f}  events: {result.metrics.events_processed}"
    )
    return "\n".join(lines)


def _record_header(label: str, record: "RecordBase") -> List[str]:
    """The identity, tags and environment lines every stored-record report opens with."""
    lines = [
        f"{label}: {record.key}",
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
    return lines


def render_record_report(record: "RecordBase") -> str:
    """Render one stored record (of either kind) as a multi-section report.

    The stored counterpart of :func:`render_run_report`: everything here
    comes from the record's serialized data alone, so any store can be
    inspected without re-running (or even being able to re-run) the task.
    Multi-decree records dispatch to :func:`render_smr_record_report`.
    """
    if record.kind == "smr":
        return render_smr_record_report(record)
    lines = _record_header("run record", record)
    lines.append("decisions (lag is relative to TS):")
    decided = {decision.pid: decision for decision in record.decisions}
    rows: List[List[object]] = []
    for pid in range(record.n):
        decision = decided.get(pid)
        if decision is None:
            status = "undecided" if pid in record.undecided_pids else "not expected"
            rows.append([f"p{pid}", "-", "-", status])
        else:
            rows.append(
                [f"p{pid}", repr(decision.value), f"{decision.after_stability:+.3f}", "decided"]
            )
    lines.append(render_table(["process", "decided value", "lag after TS", "status"], rows,
                              indent="  "))
    lines.append("")

    lag = record.metrics.get("max_lag_after_ts")
    lag_text = f"{lag:.3f} ({lag / record.delta:.3f} delta)" if lag is not None else "n/a"
    lines.append(f"worst decision lag after TS : {lag_text}")
    safety = record.metrics.get("safety_valid")
    lines.append(f"safety                      : {'OK' if safety else safety}")
    lines.append(
        f"messages: sent={record.messages_sent} delivered={record.messages_delivered}  "
        f"simulated time: {record.duration:.3f}"
    )
    return "\n".join(lines)


def _command_rows(commands, expected_replicas) -> List[List[object]]:
    """One table row per command: origin, submit time, latencies, coverage."""
    expected = set(expected_replicas)
    rows: List[List[object]] = []
    for record in commands:
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
    return rows


_COMMAND_HEADERS = [
    "command", "origin", "submitted", "submitter latency", "global latency", "learned by"
]


def render_smr_run_report(result: "SmrRunResult") -> str:
    """Render one finished SMR run as a multi-section text report."""
    config = result.scenario.config
    lines: List[str] = []
    lines.append(
        f"smr run report: multi-paxos-smr scenario={result.scenario.name} "
        f"({result.schedule.describe()})"
    )
    lines.append(
        f"  model: n={config.n} ts={config.ts:g} seed={config.seed} "
        f"{config.params.describe()}"
    )
    lines.append(f"  faults: {result.scenario.fault_plan.describe()}")
    lines.append("")
    lines.append("commands:")
    lines.append(
        render_table(
            _COMMAND_HEADERS,
            _command_rows(result.commands.values(), result.scenario.deciders()),
            indent="  ",
        )
    )
    lines.append("")
    worst_submitter = result.worst_submitter_latency()
    worst_global = result.worst_global_latency()
    submit_text = f"{worst_submitter:.3f}" if worst_submitter is not None else "n/a"
    global_text = f"{worst_global:.3f}" if worst_global is not None else "n/a"
    lines.append(f"worst submitter latency     : {submit_text}")
    lines.append(f"worst global latency        : {global_text}")
    lines.append(
        "replicas agree              : "
        + ("OK" if result.replicas_agree else "DIVERGED")
    )
    lines.append(
        "learned prefixes            : "
        + " ".join(f"p{pid}={length}" for pid, length in sorted(result.prefix_lengths.items()))
    )
    lines.append(f"log consistency checks      : {result.consistency_checks}")
    for name, report in sorted(result.invariants.items()):
        status = "OK" if report.ok else "; ".join(report.violations)
        lines.append(f"invariant {name:18s}: {status} ({report.checked} checks)")
    lines.append(f"simulated time: {result.simulator.now():.3f}")
    return "\n".join(lines)


def render_smr_record_report(record: "SmrRecord") -> str:
    """Render one stored SMR record as a multi-section text report."""
    lines = _record_header("smr record", record)
    lines.append("commands:")
    lines.append(
        render_table(
            _COMMAND_HEADERS,
            _command_rows(record.commands, record.expected_replicas),
            indent="  ",
        )
    )
    lines.append("")
    metrics = record.metrics
    for label, key in (
        ("worst submitter latency", "worst_submitter_latency"),
        ("worst global latency", "worst_global_latency"),
    ):
        value = metrics.get(key)
        text = f"{value:.3f}" if value is not None else "n/a"
        lines.append(f"{label:28s}: {text}")
    lines.append(f"{'replicas agree':28s}: {'OK' if metrics.get('replicas_agree') else 'DIVERGED'}")
    lines.append(
        f"{'learned prefixes':28s}: "
        + " ".join(f"p{pid}={length}" for pid, length in sorted(record.prefix_lengths.items()))
    )
    lines.append(
        f"messages: sent={record.messages_sent} delivered={record.messages_delivered}  "
        f"simulated time: {record.duration:.3f}"
    )
    return "\n".join(lines)
