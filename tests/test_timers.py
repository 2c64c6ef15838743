"""Unit tests for named timers (`repro.sim.timers`) against a fake scheduler."""

from dataclasses import dataclass, field
from typing import Callable, List

import pytest

from repro.errors import SchedulingError
from repro.sim.clock import DriftingClock
from repro.sim.events import EventHandle
from repro.sim.timers import TimerManager


@dataclass
class FakeEntry:
    """One scheduled (time, action, args) triple plus its handle."""

    time: float
    action: Callable[..., None]
    args: tuple
    handle: EventHandle

    def fire(self) -> None:
        self.action(*self.args)


@dataclass
class FakeScheduler:
    """Minimal stand-in for the simulator's scheduling interface."""

    now: float = 0.0
    scheduled: List[FakeEntry] = field(default_factory=list)

    def schedule(
        self, time: float, action: Callable[..., None], *, label: str = "", args: tuple = ()
    ) -> EventHandle:
        handle = EventHandle(time=time, label=label, seq=len(self.scheduled))
        self.scheduled.append(FakeEntry(time=time, action=action, args=args, handle=handle))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        handle.cancel()

    def fire_due(self, up_to: float) -> None:
        """Fire every non-cancelled event scheduled at or before ``up_to``."""
        for entry in list(self.scheduled):
            if not entry.handle.cancelled and entry.time <= up_to:
                self.now = entry.time
                entry.fire()


def make_manager(rate: float = 1.0):
    scheduler = FakeScheduler()
    fired: List[str] = []
    manager = TimerManager(
        clock=DriftingClock(rate=rate),
        schedule=scheduler.schedule,
        cancel=scheduler.cancel,
        on_fire=fired.append,
        now=lambda: scheduler.now,
    )
    return manager, scheduler, fired


class TestSetAndFire:
    def test_set_schedules_at_converted_real_time(self):
        manager, scheduler, _ = make_manager(rate=2.0)
        handle = manager.set("session", 4.0)
        # Local 4.0 at rate 2.0 means 2.0 real seconds.
        assert handle.time == pytest.approx(2.0)
        assert scheduler.scheduled[0].time == pytest.approx(2.0)

    def test_fire_invokes_callback_and_clears_pending(self):
        manager, scheduler, fired = make_manager()
        manager.set("ping", 1.0)
        scheduler.fire_due(1.0)
        assert fired == ["ping"]
        assert "ping" not in manager

    def test_negative_delay_rejected(self):
        manager, _, _ = make_manager()
        with pytest.raises(SchedulingError):
            manager.set("bad", -0.1)


class TestReplaceAndCancel:
    def test_setting_same_name_replaces_previous(self):
        manager, scheduler, fired = make_manager()
        manager.set("session", 1.0)
        manager.set("session", 10.0)
        # The first scheduled event was cancelled; firing up to t=1 does nothing.
        scheduler.fire_due(1.0)
        assert fired == []
        assert len(manager) == 1

    def test_cancel_prevents_firing(self):
        manager, scheduler, fired = make_manager()
        manager.set("once", 1.0)
        assert manager.cancel("once") is True
        scheduler.fire_due(10.0)
        assert fired == []

    def test_cancel_unknown_returns_false(self):
        manager, _, _ = make_manager()
        assert manager.cancel("nothing") is False


class TestEpochInvalidation:
    def test_invalidate_all_cancels_every_timer(self):
        manager, scheduler, fired = make_manager()
        manager.set("a", 1.0)
        manager.set("b", 2.0)
        manager.invalidate_all()
        scheduler.fire_due(10.0)
        assert fired == []
        assert len(manager) == 0

    def test_stale_epoch_timer_never_fires_into_new_incarnation(self):
        manager, scheduler, fired = make_manager()
        manager.set("session", 1.0)
        # Simulate a crash/restart between scheduling and firing: the handle
        # is not cancelled (e.g. it was already popped by the event loop) but
        # the epoch moved on.
        stale_entry = scheduler.scheduled[0]
        manager.invalidate_all()
        manager.set("session", 5.0)
        stale_entry.fire()
        assert fired == []
