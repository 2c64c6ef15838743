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

    @property
    def decided_before_stability(self) -> bool:
        return self.after_stability < 0


@dataclass
class RunOutcome:
    """Everything a finished run exposes to analysis and reporting.

    Built by :mod:`repro.harness.runner`; consumed by the metrics, the
    safety spec, and the experiment tables.
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

    @property
    def decided_values(self) -> List[Any]:
        return [decision.value for decision in self.decisions]

    def decision_of(self, pid: int) -> Optional[DecisionOutcome]:
        for decision in self.decisions:
            if decision.pid == pid:
                return decision
        return None

    def max_decision_after_stability(self, pids: Optional[List[int]] = None) -> Optional[float]:
        """Worst decision lag after ``TS`` over the given pids (default: all deciders).

        A process that decided before ``TS`` contributes 0 (it cannot make
        the post-stability lag worse).  Returns None if no relevant process
        decided.
        """
        relevant = [
            decision
            for decision in self.decisions
            if pids is None or decision.pid in pids
        ]
        if not relevant:
            return None
        return max(max(0.0, decision.after_stability) for decision in relevant)

    def describe(self) -> str:
        decided = len(self.decisions)
        lag = self.max_decision_after_stability()
        lag_text = f"{lag:.3f}" if lag is not None else "n/a"
        return (
            f"{self.protocol}: n={self.n} decided={decided}/{self.n} "
            f"max-lag-after-TS={lag_text} msgs={self.messages_sent}"
        )
