"""Named, per-process timers.

Protocols set timers in *local* clock time (:class:`repro.sim.clock.DriftingClock`
converts local durations to real ones).  Timers are named: setting a timer
with an existing name replaces it, which matches how protocols express
"reset the session timer".  All timers of a process are invalidated when the
process crashes; firing callbacks are routed through an epoch check so a
stale timer scheduled before a crash can never fire into a restarted
incarnation.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import SchedulingError
from repro.sim.clock import DriftingClock
from repro.sim.events import EventHandle

__all__ = ["TimerManager"]

ScheduleFn = Callable[..., EventHandle]
"""``schedule(real_time, action, *, label=..., args=...)`` -> handle."""
CancelFn = Callable[[EventHandle], None]
FireFn = Callable[[str], None]


class TimerManager:
    """Manage the named timers of a single process incarnation.

    Args:
        clock: The owning process's local clock.
        schedule: Callable ``schedule(real_time, action, label=...)`` returning
            an :class:`EventHandle` (normally ``Simulator.schedule_at``).
        cancel: Callable cancelling an :class:`EventHandle`.
        on_fire: Callback invoked with the timer name when a timer fires.
        now: Callable returning the current real time.
    """

    def __init__(
        self,
        clock: DriftingClock,
        schedule: ScheduleFn,
        cancel: CancelFn,
        on_fire: FireFn,
        now: Callable[[], float],
    ) -> None:
        self._clock = clock
        self._schedule = schedule
        self._cancel = cancel
        self._on_fire = on_fire
        self._now = now
        self._pending: Dict[str, EventHandle] = {}
        self._epoch = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, name: str) -> bool:
        return name in self._pending

    def set(self, name: str, local_delay: float, *, pid_label: str = "") -> EventHandle:
        """(Re)set the named timer to fire ``local_delay`` local seconds from now.

        Returns the pending event's handle; ``handle.time`` is the real firing time.
        """
        if local_delay < 0:
            raise SchedulingError(f"timer {name!r} set with negative delay {local_delay}")
        self.cancel(name)
        fires_at = self._now() + self._clock.real_duration(local_delay)
        label = f"timer:{pid_label}:{name}" if pid_label else f"timer:{name}"
        # Bound method + args instead of a closure: one allocation less per
        # timer (re)set, and timers are reset on every protocol cadence tick.
        handle = self._schedule(fires_at, self._fire, args=(name, self._epoch), label=label)
        self._pending[name] = handle
        return handle

    def cancel(self, name: str) -> bool:
        """Cancel the named timer if pending.  Returns True if one was cancelled."""
        handle = self._pending.pop(name, None)
        if handle is None:
            return False
        if not handle.cancelled:
            self._cancel(handle)
        return True

    def invalidate_all(self) -> None:
        """Cancel every pending timer and bump the epoch (crash/restart path)."""
        for name in list(self._pending):
            self.cancel(name)
        self._epoch += 1

    def _fire(self, name: str, epoch: int) -> None:
        if epoch != self._epoch:
            # Timer belongs to a previous incarnation; drop silently.
            return
        if self._pending.pop(name, None) is None:
            # Cancelled between scheduling and firing (should have been
            # caught by handle cancellation, but be defensive).
            return
        self._on_fire(name)
