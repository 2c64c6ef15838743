"""Structured execution traces.

Every interesting thing that happens in a simulation — sends, deliveries,
drops, crashes, restarts, timer firings, protocol-specific events (session
entries, round entries, ballot bumps), and decisions — is appended to a
:class:`TraceRecorder`.  Post-hoc analysis (invariant checking, metrics,
debugging) works exclusively off this trace so it never has to re-run or
instrument the protocols.

Recording is cheap and reading pays for what it asks for.  The recorder keeps
one list of plain tuples, one *row* per event::

    (time, category, event, pid, fields)             # record(...)
    (time, category, event, pid, None, *values)      # record_send/_deliver/_timer

A :meth:`TraceRecorder.record` row keeps the keyword-argument dict it was
called with.  The three hottest sites (network sends, deliveries and timer
firings — about 99% of a run's rows) use dedicated methods whose rows hold
only atoms: ``fields`` is ``None`` and the field values follow positionally,
named by :data:`HOT_FIELDS`.  Such a tuple owns no container, so the cyclic
garbage collector stops tracking it.  Readers get :class:`TraceEvent` objects
built from the rows on demand, with the same field dicts, in the same key
order, as the recording call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = ["HOT_FIELDS", "TraceEvent", "TraceRecorder"]

#: Field names of the rows written by the hot recording methods, by event name.
HOT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "send": ("dst", "kind", "msg_id", "dropped"),
    "deliver": ("src", "kind", "msg_id"),
    "deliver_to_crashed": ("src", "kind", "msg_id"),
    "timer": ("name",),
}


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes:
        time: Real (simulated) time of the event.
        category: Coarse source of the event: ``"sim"``, ``"net"``,
            ``"node"``, or ``"protocol"``.
        event: Short event name, e.g. ``"deliver"``, ``"crash"``,
            ``"session_enter"``, ``"decide"``.
        pid: Process the event concerns, or ``None`` for global events.
        fields: Free-form structured payload.
    """

    time: float
    category: str
    event: str
    pid: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        where = f"p{self.pid}" if self.pid is not None else "--"
        payload = " ".join(f"{key}={value!r}" for key, value in sorted(self.fields.items()))
        return f"[{self.time:10.4f}] {self.category:8s} {where:>4s} {self.event:18s} {payload}"


def _to_event(row: tuple) -> TraceEvent:
    """The :class:`TraceEvent` a row stands for."""
    time, category, event, pid, fields = row[:5]
    if fields is None:
        fields = dict(zip(HOT_FIELDS[event], row[5:]))
    return TraceEvent(time, category, event, pid, fields)


class TraceRecorder:
    """Append-only trace of rows, read back as :class:`TraceEvent` records.

    Storage is one list of row tuples in record order (layout in the module
    docstring) plus an index from event name to the positions of its rows,
    kept at record time, so ``filter(event=...)``, :meth:`first`,
    :meth:`last` and :meth:`count` walk only that event's rows.  Every read
    (iteration, :attr:`events`, the queries, :meth:`dump`) builds fresh
    :class:`TraceEvent` objects; a ``record`` row's event shares the row's
    field dict.

    Args:
        enabled: When False, every recording method is a no-op (cheap
            benchmarks).  Hot call sites (the simulator's send/deliver/decide
            paths and the node lifecycle) additionally check :attr:`enabled`
            *before* calling, so a disabled run never even builds the
            arguments — keep that pattern when adding new recording sites on
            hot paths.
        capacity: Optional hard cap on stored events; older events are never
            evicted — recording simply stops and ``truncated`` becomes True.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.truncated = False
        self._rows: List[tuple] = []
        self._index: Dict[str, List[int]] = {name: [] for name in HOT_FIELDS}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_to_event, self._rows)

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
        """Append one event (no-op when disabled or over capacity)."""
        if not self.enabled:
            return
        rows = self._rows
        if self.capacity is not None and len(rows) >= self.capacity:
            self.truncated = True
            return
        positions = self._index.get(event)
        if positions is None:
            positions = self._index[event] = []
        positions.append(len(rows))
        rows.append((time, category, event, pid, fields))

    # -- hot rows: atoms only, field names from HOT_FIELDS ----------------------
    def record_send(
        self, time: float, src: int, dst: int, kind: str, msg_id: int, dropped: bool
    ) -> None:
        """``record(time, "net", "send", pid=src, dst=..., kind=..., msg_id=..., dropped=...)``."""
        if not self.enabled:
            return
        rows = self._rows
        if self.capacity is not None and len(rows) >= self.capacity:
            self.truncated = True
            return
        self._index["send"].append(len(rows))
        rows.append((time, "net", "send", src, None, dst, kind, msg_id, dropped))

    def record_deliver(
        self, time: float, accepted: bool, dst: int, src: int, kind: str, msg_id: int
    ) -> None:
        """A ``"net"`` ``deliver`` (or, if not ``accepted``, ``deliver_to_crashed``) row."""
        if not self.enabled:
            return
        rows = self._rows
        if self.capacity is not None and len(rows) >= self.capacity:
            self.truncated = True
            return
        event = "deliver" if accepted else "deliver_to_crashed"
        self._index[event].append(len(rows))
        rows.append((time, "net", event, dst, None, src, kind, msg_id))

    def record_timer(self, time: float, pid: int, name: str) -> None:
        """``record(time, "node", "timer", pid=pid, name=name)``."""
        if not self.enabled:
            return
        rows = self._rows
        if self.capacity is not None and len(rows) >= self.capacity:
            self.truncated = True
            return
        self._index["timer"].append(len(rows))
        rows.append((time, "node", "timer", pid, None, name))

    # -- queries -------------------------------------------------------------
    def _select(
        self,
        event: Union[None, str, Sequence[str]] = None,
        category: Optional[str] = None,
        pid: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[tuple]:
        """Rows matching all the given criteria, in record order."""
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
        if predicate is not None:
            selected = [row for row in selected if predicate(_to_event(row))]
        return selected

    def filter(
        self,
        event: Union[None, str, Sequence[str]] = None,
        category: Optional[str] = None,
        pid: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Events matching all the given criteria, in record order.

        ``event`` is one event name or a tuple of names (merged in record
        order).
        """
        return [_to_event(row) for row in self._select(event, category, pid, predicate)]

    def first(self, event: str, **criteria: Any) -> Optional[TraceEvent]:
        """Earliest event with the given name (and optional pid/category)."""
        matches = self._select(event, **criteria)
        return _to_event(matches[0]) if matches else None

    def last(self, event: str, **criteria: Any) -> Optional[TraceEvent]:
        """Latest event with the given name (and optional pid/category)."""
        matches = self._select(event, **criteria)
        return _to_event(matches[-1]) if matches else None

    def count(self, event: str, **criteria: Any) -> int:
        return len(self._select(event, **criteria))

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of (a prefix of) the trace."""
        rows = self._rows if limit is None else self._rows[:limit]
        lines = [_to_event(row).describe() for row in rows]
        if limit is not None and len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more events)")
        return "\n".join(lines)
