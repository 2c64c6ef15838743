"""Query and aggregation helpers over stored run records.

The bridge from durable records back into the live analysis stack:
:func:`result_set_of` lifts records into the
:class:`~repro.harness.experiment.ResultSet` the tables and stats layers
already consume, :func:`lag_aggregates` condenses a store into per
(protocol, workload) decision-lag statistics, and :func:`diff_aggregates`
compares two stores' aggregates — the engine behind
``python -m repro results diff``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.stats import summarize
from repro.errors import ResultSchemaError
from repro.results.record import RecordBase, RunRecord

__all__ = [
    "LagAggregate",
    "diff_aggregates",
    "export_csv",
    "export_json",
    "lag_aggregates",
    "result_set_of",
]


def result_set_of(records: Iterable[RecordBase]):
    """Lift run records into a :class:`~repro.harness.experiment.ResultSet`.

    Each record becomes a :class:`~repro.harness.experiment.ResultRow` whose
    task is rebuilt from the record's stored identity and tags, so tag
    filtering, ``group_by``, and
    :meth:`~repro.harness.tables.ExperimentTable.from_result_set` behave
    exactly as they do on a freshly executed set.  The rows are single-decree
    :class:`~repro.harness.executors.RunTask` rows, so a record of another
    kind raises :class:`~repro.errors.ResultSchemaError` rather than becoming
    a mislabelled row.
    """
    from repro.harness.executors import RunTask
    from repro.harness.experiment import ResultRow, ResultSet

    rows = []
    for record in records:
        if record.kind != RunRecord.kind:
            raise ResultSchemaError(
                f"record {record.key!r} is a {record.kind!r} record; a ResultSet holds "
                "single-decree run records only — use query_records() for mixed "
                "stores, or pass protocol= to select run records"
            )
        task = RunTask(
            protocol=record.protocol,
            workload=record.workload,
            tags=dict(record.tags),
        )
        rows.append(ResultRow(task=task, outcome=record.to_outcome()))
    return ResultSet(rows)


@dataclass(frozen=True)
class LagAggregate:
    """Decision-lag statistics of one (protocol, workload) record group."""

    protocol: str
    workload: str
    runs: int
    undecided: int
    mean_lag_delta: Optional[float]
    max_lag_delta: Optional[float]

    def describe(self) -> str:
        mean = f"{self.mean_lag_delta:.3f}" if self.mean_lag_delta is not None else "-"
        peak = f"{self.max_lag_delta:.3f}" if self.max_lag_delta is not None else "-"
        return (
            f"{self.protocol}/{self.workload}: runs={self.runs} "
            f"undecided={self.undecided} mean_lag={mean}d max_lag={peak}d"
        )


GroupKey = Tuple[str, str]


def lag_aggregates(records: Iterable[RecordBase]) -> Dict[GroupKey, LagAggregate]:
    """Per (protocol, workload) decision-lag aggregates, in first-seen order."""
    groups: Dict[GroupKey, List[RecordBase]] = {}
    for record in records:
        groups.setdefault((record.protocol, record.workload), []).append(record)
    aggregates: Dict[GroupKey, LagAggregate] = {}
    for (protocol, workload), members in groups.items():
        lags = [r.lag_delta for r in members if r.lag_delta is not None]
        summary = summarize(lags) if lags else None
        aggregates[(protocol, workload)] = LagAggregate(
            protocol=protocol,
            workload=workload,
            runs=len(members),
            undecided=sum(1 for r in members if not r.metrics.get("all_decided", True)),
            mean_lag_delta=summary.mean if summary else None,
            max_lag_delta=summary.maximum if summary else None,
        )
    return aggregates


def diff_aggregates(
    a: Iterable[RecordBase], b: Iterable[RecordBase]
) -> List[Dict[str, Any]]:
    """Compare two stores' decision-lag aggregates group by group.

    Returns one row dict per (protocol, workload) present in either side,
    with the per-side mean/max lag and their difference (``None`` where a
    side lacks the group or never measured a lag).
    """
    left = lag_aggregates(a)
    right = lag_aggregates(b)
    rows: List[Dict[str, Any]] = []
    seen = list(left) + [key for key in right if key not in left]
    for key in seen:
        one, two = left.get(key), right.get(key)

        def lag_pair(attr: str) -> Tuple[Optional[float], Optional[float], Optional[float]]:
            x = getattr(one, attr) if one else None
            y = getattr(two, attr) if two else None
            return x, y, (y - x) if x is not None and y is not None else None

        mean_a, mean_b, mean_diff = lag_pair("mean_lag_delta")
        max_a, max_b, max_diff = lag_pair("max_lag_delta")
        rows.append(
            {
                "protocol": key[0],
                "workload": key[1],
                "runs_a": one.runs if one else 0,
                "runs_b": two.runs if two else 0,
                "mean_lag_a": mean_a,
                "mean_lag_b": mean_b,
                "mean_lag_diff": mean_diff,
                "max_lag_a": max_a,
                "max_lag_b": max_b,
                "max_lag_diff": max_diff,
            }
        )
    return rows


_CSV_COLUMNS = (
    "key",
    "protocol",
    "workload",
    "n",
    "ts",
    "delta",
    "seed",
    "decided",
    "all_decided",
    "lag_delta",
    "messages_sent",
    "messages_delivered",
    "duration",
)


def export_csv(records: Iterable[RecordBase]) -> str:
    """Flat per-run CSV of the identity columns plus the metrics digest."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for record in records:
        writer.writerow(
            [
                record.key,
                record.protocol,
                record.workload,
                record.n,
                record.ts,
                record.delta,
                record.seed,
                record.metrics.get("decided"),
                record.metrics.get("all_decided"),
                record.lag_delta,
                record.outcome.messages_sent,
                record.outcome.messages_delivered,
                record.outcome.duration,
            ]
        )
    return buffer.getvalue()


def export_json(records: Iterable[RecordBase], indent: Optional[int] = 2) -> str:
    """Full-fidelity JSON array of every record's serialized form."""
    return json.dumps([record.to_dict() for record in records], indent=indent, sort_keys=True)
