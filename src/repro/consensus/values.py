"""Outcome records shared by the spec, the metrics, and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ResultSchemaError

__all__ = ["DecisionOutcome", "RunOutcome", "json_safe"]


def json_safe(value: Any, where: str = "value") -> Any:
    """Deep-normalize ``value`` into JSON-representable plain data.

    Tuples become lists (so a value equals its JSON round trip); scalars,
    lists, and string-keyed mappings pass through recursively.  Anything JSON
    cannot represent faithfully — sets, arbitrary objects, non-string mapping
    keys — raises :class:`~repro.errors.ResultSchemaError` naming where it
    appeared, instead of silently producing a record that cannot round-trip.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ResultSchemaError(
                f"{where}: non-finite float {value!r} is not JSON-representable"
            )
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(item, f"{where}[{index}]") for index, item in enumerate(value)]
    if isinstance(value, Mapping):
        plain: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ResultSchemaError(
                    f"{where}: mapping key {key!r} is not a string; JSON objects "
                    "round-trip string keys only"
                )
            plain[key] = json_safe(item, f"{where}[{key!r}]")
        return plain
    raise ResultSchemaError(
        f"{where}: value {value!r} of type {type(value).__name__} is not JSON-serializable"
    )


@dataclass(frozen=True)
class DecisionOutcome:
    """The decision of one process, as seen at the end of a run."""

    pid: int
    value: Any
    time: float
    after_stability: float


@dataclass
class RunOutcome:
    """Everything a finished run exposes to analysis and reporting.

    Built once, when the run finishes, by
    :func:`~repro.analysis.metrics.compute_run_metrics`; consumed by the
    experiment tables, the records, and the reports.
    """

    protocol: str
    n: int
    ts: float
    delta: float
    seed: int
    decisions: List[DecisionOutcome] = field(default_factory=list)
    proposals: Dict[int, Any] = field(default_factory=dict)
    undecided_pids: List[int] = field(default_factory=list)
    messages_sent: int = 0
    messages_delivered: int = 0
    duration: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def all_decided(self) -> bool:
        return not self.undecided_pids

    def max_lag_after_ts(self) -> Optional[float]:
        """Worst decision lag after ``TS`` over the expected deciders (None while one is undecided)."""
        return self.extra["max_lag_after_ts"]
