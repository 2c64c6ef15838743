"""Process lifecycle: the node wrapper around a protocol instance.

A :class:`Node` owns everything about one process that outlives a crash —
its id, its (hardware) clock, its stable storage — and everything that does
not: the current protocol object, its timers, and its incarnation number.
Crashing destroys the protocol object and all timers; restarting builds a
fresh protocol instance from the factory and hands it the same stable
storage, exactly matching the paper's "a failed process can restart at any
time ... by simply resuming where it left off" (with the resumption driven
by what the protocol persisted).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ProcessStateError
from repro.net.message import Envelope
from repro.params import TimingParams
from repro.sim.clock import DriftingClock
from repro.sim.process import Process, ProcessContext, ProcessFactory
from repro.sim.rng import SeededRng
from repro.sim.timers import TimerManager
from repro.storage.stable import StableStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

__all__ = ["Node", "ProcessStatus"]


class ProcessStatus(enum.Enum):
    """Lifecycle state of a node."""

    NOT_STARTED = "not-started"
    ACTIVE = "active"
    CRASHED = "crashed"


# Enum member lookups cost a descriptor call; the per-message checks below
# compare against this module constant instead.
_ACTIVE = ProcessStatus.ACTIVE


class Node:
    """One process slot: survives crashes, hosts successive protocol incarnations."""

    def __init__(
        self,
        pid: int,
        simulator: "Simulator",
        factory: ProcessFactory,
        params: TimingParams,
        clock: DriftingClock,
        rng: SeededRng,
        initial_value: Any,
    ) -> None:
        self.pid = pid
        self.simulator = simulator
        self.factory = factory
        self.params = params
        self.clock = clock
        self.rng = rng
        self.initial_value = initial_value
        self.storage = StableStore(owner=pid)
        self.status = ProcessStatus.NOT_STARTED
        self.incarnation = 0
        self.process: Optional[Process] = None
        self.crash_count = 0
        self.restart_count = 0
        self._timers = TimerManager(
            clock=clock,
            schedule=simulator.schedule_at,
            cancel=simulator.cancel,
            on_fire=self._on_timer_fired,
            now=simulator.now,
        )

    def __repr__(self) -> str:
        return f"Node(pid={self.pid}, status={self.status.value}, incarnation={self.incarnation})"

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Start the first incarnation (called by the simulator at time 0)."""
        if self.status is not ProcessStatus.NOT_STARTED:
            raise ProcessStateError(f"process {self.pid} already started")
        self._boot()

    def crash(self) -> None:
        """Crash the process: lose volatile state, stop receiving messages."""
        if self.status is not ProcessStatus.ACTIVE:
            raise ProcessStateError(
                f"cannot crash process {self.pid}: status is {self.status.value}"
            )
        self.status = ProcessStatus.CRASHED
        self.crash_count += 1
        self._timers.invalidate_all()
        if self.process is not None:
            self.process.on_stop()
        self.process = None
        self.simulator.trace.record(self.simulator.now(), "node", "crash", pid=self.pid)

    def restart(self) -> None:
        """Restart after a crash with a fresh protocol instance and old storage."""
        if self.status is not ProcessStatus.CRASHED:
            raise ProcessStateError(
                f"cannot restart process {self.pid}: status is {self.status.value}"
            )
        self.restart_count += 1
        self._boot(restarting=True)

    def _boot(self, restarting: bool = False) -> None:
        self.incarnation += 1
        self.status = ProcessStatus.ACTIVE
        self.process = self.factory(self.pid)
        self.process.initial_value = self.initial_value
        context = self._build_context()
        self.process.bind(context)
        event = "restart" if restarting else "start"
        self.simulator.trace.record(
            self.simulator.now(), "node", event, pid=self.pid, incarnation=self.incarnation
        )
        self.process.on_start()

    # -- interaction with the simulator ----------------------------------------
    def deliver(self, envelope: Envelope) -> bool:
        """Deliver a message to the protocol; False if the node is not active."""
        if self.status is not _ACTIVE or self.process is None:
            return False
        self.process.on_message(envelope.message, envelope.src)
        return True

    def local_time(self) -> float:
        return self.clock.local_time(self.simulator.now())

    # -- context plumbing ---------------------------------------------------------
    def _build_context(self) -> ProcessContext:
        return ProcessContext(
            pid=self.pid,
            n=self.simulator.config.n,
            params=self.params,
            storage=self.storage,
            rng=self.rng,
            send=self._send,
            set_timer=self._set_timer,
            cancel_timer=self._timers.cancel,
            timer_pending=lambda name: name in self._timers,
            decide=self._decide,
            local_time=self.local_time,
            emit=self._emit,
        )

    def _send(self, message: Any, dst: int) -> None:
        if self.status is not _ACTIVE:
            return
        self.simulator.network.send(message, self.pid, dst)

    def _set_timer(self, name: str, local_delay: float) -> None:
        if self.status is not _ACTIVE:
            return
        self._timers.set(name, local_delay, pid_label=f"p{self.pid}")

    def _on_timer_fired(self, name: str) -> None:
        if self.status is not _ACTIVE or self.process is None:
            return
        self.process.on_timer(name)

    def _decide(self, value: Any) -> None:
        if self.status is not _ACTIVE:
            return
        self.simulator.record_decision(self.pid, value, self.incarnation)

    def _emit(self, event: str, fields: dict) -> None:
        self.simulator.trace.record(self.simulator.now(), "protocol", event, pid=self.pid, **fields)
