"""Structured execution traces.

The simulator records the events the post-run analysis reads: process
starts, crashes and restarts, protocol events (session entries, phase
starts, round entries, SMR submissions and slot decisions) and decisions.
Invariant checks, metrics, outcome snapshots and ``repro run --timeline``
work exclusively off this trace, so they never have to re-run or
instrument the protocols.  Per-message traffic (sends, deliveries, timer
firings) is not traced: the network monitor counts it.

The recorder keeps one list of ``(time, category, event, pid, fields)``
row tuples, where ``fields`` is the keyword-argument dict
:meth:`TraceRecorder.record` was called with.  Readers get
:class:`TraceEvent` objects built from the rows on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes:
        time: Real (simulated) time of the event.
        category: Coarse source of the event: ``"sim"``, ``"net"``,
            ``"node"``, or ``"protocol"``.
        event: Short event name, e.g. ``"start"``, ``"crash"``,
            ``"session_enter"``, ``"decide"``.
        pid: Process the event concerns, or ``None`` for global events.
        fields: Free-form structured payload.
    """

    time: float
    category: str
    event: str
    pid: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)


def _to_event(row: tuple) -> TraceEvent:
    """The :class:`TraceEvent` a row stands for."""
    return TraceEvent(*row)


class TraceRecorder:
    """Append-only trace of rows, read back as :class:`TraceEvent` records.

    Storage is one list of row tuples in record order (layout in the module
    docstring) plus an index from event name to the positions of its rows,
    kept at record time, so ``filter(event=...)`` walks only that event's
    rows.  Every read (:attr:`events`, :meth:`filter`) builds
    fresh :class:`TraceEvent` objects that share the rows' field dicts.
    """

    def __init__(self) -> None:
        self._rows: List[tuple] = []
        self._index: Dict[str, List[int]] = {}

    @property
    def events(self) -> List[TraceEvent]:
        """Every event, as :class:`TraceEvent` objects built afresh on each call."""
        return [_to_event(row) for row in self._rows]

    def record(
        self,
        time: float,
        category: str,
        event: str,
        pid: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Append one event."""
        rows = self._rows
        self._index.setdefault(event, []).append(len(rows))
        rows.append((time, category, event, pid, fields))

    # -- queries -------------------------------------------------------------
    def filter(
        self,
        event: Union[None, str, Sequence[str]] = None,
        category: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Events matching all the given criteria, in record order.

        ``event`` is one event name or a tuple of names (merged in record
        order).
        """
        rows = self._rows
        if event is None:
            selected = rows
        else:
            index = self._index
            if isinstance(event, str):
                positions = index.get(event, ())
            else:
                positions = merge(*(index.get(name, ()) for name in set(event)))
            selected = [rows[position] for position in positions]
        if category is not None or pid is not None:
            selected = [
                row
                for row in selected
                if (category is None or row[1] == category) and (pid is None or row[3] == pid)
            ]
        return [_to_event(row) for row in selected]
