"""Fault plans: declarative crash/restart schedules.

A :class:`FaultPlan` is a validated list of timestamped crash and restart
events.  Validation enforces the constraints of the paper's model:

* every event lies at a finite time no earlier than 0, the start of the
  run;
* a process can only crash while running and restart while crashed
  (per-process alternation);
* no crash may be scheduled at or after the stabilization time ``TS`` when
  the plan is validated against a ``ts`` (the paper assumes no failures
  after ``TS``; restarts after ``TS`` are allowed and are in fact one of the
  phenomena under study);
* at every instant from ``TS`` on, a majority of processes must be up
  (checked conservatively from the plan).
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

__all__ = ["FaultEvent", "FaultKind", "FaultPlan"]


@functools.total_ordering
class FaultKind(enum.Enum):
    CRASH = "crash"
    RESTART = "restart"

    def __lt__(self, other: "FaultKind") -> bool:
        return self is FaultKind.CRASH and other is FaultKind.RESTART


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled crash or restart.

    Events order by ``(time, pid, kind)``; on a tie in time and pid a crash
    comes before a restart, so :meth:`FaultPlan.validate` judges the pair
    whatever order it was written in.
    """

    time: float
    pid: int
    kind: FaultKind

    def describe(self) -> str:
        return f"{self.kind.value} p{self.pid} @ {self.time:g}"


class FaultPlan:
    """An ordered, validated collection of fault events."""

    def __init__(self, events: Optional[Iterable[FaultEvent]] = None) -> None:
        self._events: List[FaultEvent] = sorted(events) if events else []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    # -- construction -----------------------------------------------------------
    def crash(self, pid: int, time: float) -> "FaultPlan":
        """Add a crash of ``pid`` at ``time`` (fluent).

        Insertion keeps the event list sorted via :func:`bisect.insort`
        (``FaultEvent`` is ``order=True``), so building an n-event plan one
        fluent call at a time costs O(n log n) comparisons overall instead of
        the O(n² log n) of re-sorting the whole list per call.
        """
        insort(self._events, FaultEvent(time=time, pid=pid, kind=FaultKind.CRASH))
        return self

    def restart(self, pid: int, time: float) -> "FaultPlan":
        """Add a restart of ``pid`` at ``time`` (fluent)."""
        insort(self._events, FaultEvent(time=time, pid=pid, kind=FaultKind.RESTART))
        return self

    # -- queries ----------------------------------------------------------------------
    def crashed_at(self, time: float) -> Set[int]:
        """Processes that are down at ``time`` according to the plan."""
        down: Set[int] = set()
        for event in self._events:
            if event.time > time:
                break
            if event.kind is FaultKind.CRASH:
                down.add(event.pid)
            else:
                down.discard(event.pid)
        return down

    def final_down(self) -> Set[int]:
        """Processes left crashed once the whole plan has played out."""
        return self.crashed_at(float("inf"))

    # -- validation -----------------------------------------------------------------------
    def validate(
        self, n: int, ts: Optional[float] = None, *, allow_post_ts_crashes: bool = False
    ) -> None:
        """Check the plan against the model constraints.

        Args:
            n: Number of processes.
            ts: Stabilization time; when given, crashes at or after ``ts``
                are rejected and the majority-up-after-``ts`` condition is
                checked.
            allow_post_ts_crashes: Relax the paper's no-failures-after-``ts``
                assumption (used by the churn environments, which study
                repeated post-stabilization restart waves).  A majority of
                processes must still be up at every instant from ``ts`` on —
                checked after each post-``ts`` crash, which covers every
                instant because the down-set only changes at plan events.

        Raises:
            ConfigurationError: If the plan violates any constraint.
        """
        majority = n // 2 + 1
        state: Dict[int, bool] = {pid: True for pid in range(n)}  # True = up
        for event in self._events:
            if not 0 <= event.pid < n:
                raise ConfigurationError(f"fault event references unknown pid {event.pid}")
            if not 0.0 <= event.time < math.inf:  # also false for NaN
                raise ConfigurationError(
                    f"fault event {event.describe()} lies outside the run: "
                    "a fault time must be finite and not negative"
                )
            if event.kind is FaultKind.CRASH:
                if ts is not None and event.time >= ts and not allow_post_ts_crashes:
                    raise ConfigurationError(
                        f"crash of p{event.pid} at {event.time} violates the model: "
                        f"no failures at or after ts={ts}"
                    )
                if not state[event.pid]:
                    raise ConfigurationError(
                        f"p{event.pid} crashed twice without a restart (at {event.time})"
                    )
                state[event.pid] = False
                if ts is not None and allow_post_ts_crashes and event.time >= ts:
                    up_now = sum(1 for up in state.values() if up)
                    if up_now < majority:
                        raise ConfigurationError(
                            f"crash of p{event.pid} at {event.time} leaves only "
                            f"{up_now} of {n} processes up after ts={ts}; churn must "
                            f"keep a majority ({majority}) alive"
                        )
            else:
                if state[event.pid]:
                    raise ConfigurationError(
                        f"p{event.pid} restarted while running (at {event.time})"
                    )
                state[event.pid] = True
        if ts is not None:
            down_at_ts = self.crashed_at(ts)
            up_at_ts = n - len(down_at_ts)
            if up_at_ts < majority:
                raise ConfigurationError(
                    f"only {up_at_ts} of {n} processes are up at ts={ts}; "
                    f"the model requires a majority ({majority})"
                )

    # -- application -------------------------------------------------------------------------
    def apply(self, simulator: "Simulator") -> None:
        """Schedule every event of the plan on the simulator."""
        for event in self._events:
            if event.kind is FaultKind.CRASH:
                simulator.schedule_crash(event.pid, event.time)
            else:
                simulator.schedule_restart(event.pid, event.time)

    def describe(self) -> str:
        if not self._events:
            return "no faults"
        return "; ".join(event.describe() for event in self._events)
