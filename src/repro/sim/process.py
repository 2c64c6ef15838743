"""Protocol-facing process abstraction.

A consensus protocol is written as a subclass of :class:`Process`.  The
protocol never touches the simulator, the network, or real time directly; it
interacts with the world only through the :class:`ProcessContext` handed to
it, which exposes exactly the capabilities a process has in the paper's
model:

* send a message to one process or to all processes,
* set named local timers (driven by a drifting local clock); setting a
  name again replaces its pending timer,
* read and write stable storage (the only state surviving a crash),
* decide a value,
* observe its own id, the number of processes, and the known timing
  constants (``δ``, ``ρ``, ``ε``).

Notably the context does *not* expose the stabilization time, the set of
faulty processes, or global real time — processes cannot know those.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.params import TimingParams
from repro.sim.rng import SeededRng
from repro.storage.stable import StableStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.net.message import Message

__all__ = ["Process", "ProcessContext", "ProcessFactory"]


class ProcessContext:
    """Capabilities available to a protocol process.

    Instances are created by :class:`repro.sim.lifecycle.Node`; protocols only
    consume them.  All callables are injected so the context stays free of
    simulator internals and is trivial to stub in unit tests.
    """

    def __init__(
        self,
        *,
        pid: int,
        n: int,
        params: TimingParams,
        storage: StableStore,
        rng: SeededRng,
        send: Callable[["Message", Tuple[int, ...]], None],
        set_timer: Callable[[str, float], None],
        decide: Callable[[Any], None],
        local_time: Callable[[], float],
        emit: Callable[[str, dict], None],
    ) -> None:
        self.pid = pid
        self.n = n
        self.params = params
        self.storage = storage
        self.rng = rng
        self._send = send
        self._everyone = tuple(range(n))
        self._others = tuple(other for other in range(n) if other != pid)
        self._set_timer = set_timer
        self._decide = decide
        self._local_time = local_time
        self._emit = emit

    # -- identity & model constants --------------------------------------
    @property
    def majority(self) -> int:
        """Size of a strict majority quorum (``⌊N/2⌋ + 1``)."""
        return self.n // 2 + 1

    def local_time(self) -> float:
        """Current reading of this process's (drifting) local clock."""
        return self._local_time()

    # -- communication -----------------------------------------------------
    def send(self, message: "Message", dst: int) -> None:
        """Send ``message`` to process ``dst`` (may be ``self.pid``).

        One network call with the destination tuple ``(dst,)``.
        """
        self._send(message, (dst,))

    def broadcast(self, message: "Message", include_self: bool = True) -> None:
        """Send ``message`` to every process, optionally including oneself.

        Self-delivery goes through the network like any other message (it is
        still bounded by ``δ`` after stabilization), which keeps protocol
        code uniform and matches the paper's "send ... to every process
        (including itself)".  A broadcast is one network call over a
        destination tuple built once per incarnation, in pid order; the
        network serves each destination exactly as a lone send.
        """
        self._send(message, self._everyone if include_self else self._others)

    # -- timers --------------------------------------------------------------
    def set_timer(self, name: str, local_delay: float) -> None:
        """(Re)arm the named timer to fire after ``local_delay`` local seconds.

        A pending timer of the same name is replaced: only the new one fires.
        """
        self._set_timer(name, local_delay)

    # -- outcome & tracing -----------------------------------------------
    def decide(self, value: Any) -> None:
        """Record a decision for this process.

        Deciding twice with the same value is a no-op at the recording layer;
        deciding twice with different values is flagged by the safety spec.
        """
        self._decide(value)

    def emit(self, event: str, **fields: Any) -> None:
        """Emit a structured trace record (protocol-specific diagnostics)."""
        self._emit(event, dict(fields))


class Process(abc.ABC):
    """Base class for protocol processes.

    A fresh instance is constructed for every incarnation of a process: on
    restart after a crash the old object is discarded and a new one is built
    by the registered factory, so any state that must survive a crash has to
    live in ``ctx.storage``.
    """

    def __init__(self) -> None:
        self.ctx: Optional[ProcessContext] = None

    # -- lifecycle hooks -----------------------------------------------------
    def bind(self, ctx: ProcessContext) -> None:
        """Attach the context.  Called by the node before any other hook."""
        self.ctx = ctx

    @abc.abstractmethod
    def on_start(self) -> None:
        """Called once when the process (re)starts, after :meth:`bind`."""

    @abc.abstractmethod
    def on_message(self, message: "Message", sender: int) -> None:
        """Called when a message is delivered to this process."""

    @abc.abstractmethod
    def on_timer(self, name: str) -> None:
        """Called when a named timer fires."""

    # -- optional hooks ------------------------------------------------------
    def on_stop(self) -> None:
        """Called when the process crashes (for bookkeeping only).

        The process must not send messages or set timers here; the node
        ignores any such attempt because the crash has already taken effect.
        """

    def proposal(self) -> Any:
        """The value this process proposes.

        Protocol runners set ``self.initial_value`` (via the factory) before
        ``on_start``; subclasses may override for derived proposals.
        """
        return getattr(self, "initial_value", self_default_proposal(self))


def self_default_proposal(process: Process) -> Any:
    """Fallback proposal when a runner did not configure one (the pid)."""
    if process.ctx is None:
        return None
    return f"value-from-{process.ctx.pid}"


ProcessFactory = Callable[[int], Process]
"""Factory building a fresh protocol instance for process ``pid``."""
