"""Shared test utilities.

The most important helper is :class:`ContextHarness`: it builds a real
:class:`repro.sim.process.ProcessContext` whose capabilities are backed by
in-memory recorders instead of a simulator, so protocol classes can be unit
tested one transition at a time (deliver a message, fire a timer, inspect
what was sent / persisted / decided) without running an event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.params import TimingParams
from repro.sim.process import Process, ProcessContext
from repro.sim.rng import SeededRng
from repro.storage.stable import StableStore

__all__ = [
    "ContextHarness",
    "build_adversary",
    "SentEnvelope",
    "SentMessage",
    "SilentProcess",
    "capture_sent_envelopes",
    "diverge_slot_zero_after_each_run",
    "make_params",
    "make_run_record",
    "queue_simulator",
    "run_to_horizon",
    "silent_simulator",
    "trace_wire_rows",
]


def make_params(**overrides: Any) -> TimingParams:
    """TimingParams with fast-test defaults (δ=1, ρ=0, ε=0.5)."""
    values = {"delta": 1.0, "rho": 0.0, "epsilon": 0.5}
    values.update(overrides)
    return TimingParams(**values)


def build_adversary(
    kind: str,
    params: Optional[Dict[str, Any]] = None,
    inner: Any = None,
    *,
    n: int = 5,
    ts: float = 10.0,
    delta: float = 1.0,
    seed: int = 0,
):
    """An adversary of ``kind`` built from its spec, params in spec units (δ multiples).

    ``inner`` is an :class:`~repro.env.spec.AdversarySpec` for wrapping kinds.
    The run configuration is ``n`` processes, stabilization at ``ts`` and
    ``δ = delta``; the adversary draws from the seeded ``net`` stream.
    """
    from repro.env.spec import AdversarySpec
    from repro.sim.simulator import SimulationConfig

    config = SimulationConfig(
        n=n, params=make_params(delta=delta), ts=ts, seed=seed, max_time=ts + 1000.0
    )
    return AdversarySpec(kind, params or {}, inner).build(config, SeededRng(seed, label="net"))


class SilentProcess(Process):
    """Sends nothing and sets no timer, so the queue holds only the network's events."""

    def on_start(self) -> None:
        pass

    def on_message(self, message: Any, sender: int) -> None:
        pass

    def on_timer(self, name: str) -> None:
        pass


def silent_simulator(network: Any, n: int = 5):
    """A started :class:`Simulator` of ``n`` silent processes, bound to ``network``."""
    from repro.sim.simulator import SimulationConfig, Simulator

    ts = network.model.ts
    simulator = Simulator(
        SimulationConfig(n=n, ts=ts, max_time=ts + 1000.0), lambda pid: SilentProcess(), network
    )
    simulator.start()
    return simulator


def queue_simulator(max_time: float = 1000.0):
    """A started one-process simulator whose event queue a test fills directly.

    Returns ``(simulator, queue)``.  The process is silent and the network
    benign, so the queue holds only what the test pushes, and
    ``simulator.run(until=h, max_events=1)`` fires the next live entry at or
    before ``h`` exactly as every run does (``None`` as ``until`` runs to
    ``max_time``).
    """
    from repro.net.network import Network
    from repro.net.synchrony import EventualSynchrony
    from repro.sim.simulator import SimulationConfig, Simulator

    model = EventualSynchrony(ts=0.0, delta=1.0, adversary=build_adversary("benign"))
    network = Network(model=model, rng=SeededRng(0, label="net"))
    simulator = Simulator(
        SimulationConfig(n=1, max_time=max_time), lambda pid: SilentProcess(), network
    )
    simulator.start()
    return simulator, simulator._events


def fault_events(plan: Any) -> List[Any]:
    """A fault plan's events in order, read the way a run reads them: through ``plan.apply``."""
    from repro.faults.plan import FaultEvent, FaultKind

    events: List[Any] = []

    class Recorder:
        def schedule_crash(self, pid: int, time: float) -> None:
            events.append(FaultEvent(time, pid, FaultKind.CRASH))

        def schedule_restart(self, pid: int, time: float) -> None:
            events.append(FaultEvent(time, pid, FaultKind.RESTART))

    plan.apply(Recorder())
    return events


def run_to_horizon(scenario: Any, protocol: str):
    """Run ``protocol`` under ``scenario`` to its horizon, past every decision.

    Asserts the consensus safety spec and every trace invariant the
    protocol's builder declares, over the whole run, then returns the
    simulator.
    """
    from repro.consensus.registry import protocol_builder
    from repro.consensus.spec import check_safety

    builder = protocol_builder(protocol)
    simulator = scenario.build_simulator(builder)
    simulator.run()
    safety = check_safety(simulator, expected_deciders=scenario.deciders())
    assert safety.valid, safety.violations
    for name, check in builder.invariant_checks().items():
        report = check(simulator.trace, scenario.config.n)
        assert report.ok, f"{name}: {report.violations}"
    return simulator


@dataclass(frozen=True)
class SentEnvelope:
    """One destination of a ``Network.send`` call: its envelope, or the one a lost message would have had.

    ``deliver_time`` is ``None`` when the message was lost (the network
    builds no envelope for it).
    """

    message: Any
    src: int
    dst: int
    send_time: float
    era: Any
    msg_id: int
    deliver_time: Optional[float]

    @property
    def kind(self) -> str:
        return type(self.message).kind

    @property
    def dropped(self) -> bool:
        return self.deliver_time is None

    @property
    def latency(self) -> Optional[float]:
        return None if self.deliver_time is None else self.deliver_time - self.send_time


def _watch_sends(monkeypatch, on_send) -> None:
    """Call ``on_send(network, message, src, sent)`` after each ``Network.send``.

    ``sent`` holds one :class:`SentEnvelope` per destination, in order, lost
    ones included and duplicate copies left out.  They are read from the
    call's one ``EventualSynchrony.fates`` answer, whose slots take
    consecutive message ids, a copy right after its original.
    """
    from repro.net.message import Era
    from repro.net.network import Network
    from repro.net.synchrony import EventualSynchrony

    answers: List[Tuple] = []
    fates = EventualSynchrony.fates
    send = Network.send

    def watched_fates(self, src, dsts, now, rng):
        targets, times = fates(self, src, dsts, now, rng)
        answers.append((now, targets, times))
        return targets, times

    def watched_send(self, message, src, dsts):
        first_id = self._next_msg_id
        answers.clear()
        send(self, message, src, dsts)
        ((now, targets, times),) = answers
        assert self._next_msg_id == first_id + len(times)
        era = Era.POST if now >= self.model.ts else Era.PRE
        copies = len(times) - len(dsts)
        # A copy has its original's destination, so one repeated in a row is ambiguous.
        assert not copies or all(a != b for a, b in zip(dsts, dsts[1:]))
        sent, slot = [], 0
        for dst in dsts:
            sent.append(SentEnvelope(message, src, dst, now, era, first_id + slot, times[slot]))
            slot += 1
            if copies and times[slot - 1] is not None and slot < len(targets) \
                    and targets[slot] == dst:
                slot += 1
                copies -= 1
        on_send(self, message, src, sent)

    monkeypatch.setattr(EventualSynchrony, "fates", watched_fates)
    monkeypatch.setattr(Network, "send", watched_send)


def capture_sent_envelopes(monkeypatch) -> List[SentEnvelope]:
    """One :class:`SentEnvelope` per destination of every ``Network.send`` while ``monkeypatch`` is active.

    The network keeps no envelope log and builds none for a lost message;
    tests that inspect individual sends (fates, delivery times, latencies)
    collect them here, in send order, lost ones included and duplicate
    copies left out.
    """
    sent: List[SentEnvelope] = []
    _watch_sends(monkeypatch, lambda network, message, src, envelopes: sent.extend(envelopes))
    return sent


def diverge_slot_zero_after_each_run(monkeypatch) -> None:
    """Make p0's slot 0 disagree with every other replica once each ``Simulator.run`` returns.

    A divergence mutant for the SMR safety check: every replica must have
    learned slot 0 by the end of the run, and p0's log is then rebuilt with
    a different command there, so only the end-of-run log consistency check
    can see the conflict.
    """
    from repro.sim.simulator import Simulator
    from repro.smr.log import ReplicatedLog

    run = Simulator.run

    def run_then_diverge(simulator, *args, **kwargs):
        end = run(simulator, *args, **kwargs)
        assert all(0 in node.process.log for node in simulator.nodes.values())
        replica = simulator.nodes[0].process
        entries = replica.log.snapshot()
        entries[0] = ("cmd-diverged", ("set", "k", -1))
        replica.log = ReplicatedLog.restore(entries)
        return end

    monkeypatch.setattr(Simulator, "run", run_then_diverge)


def trace_wire_rows(monkeypatch) -> None:
    """Record per-message rows in every simulator's trace while ``monkeypatch`` is active.

    The simulator traces lifecycle, protocol and decision events only.  This
    wraps the three per-message calls so that each also records one row
    through ``trace.record``; the seeded-equivalence digests in
    ``tests/test_perf_fastpaths.py`` cover these rows:

    * ``Network.send``: a ``"net"`` ``send`` row per destination, lost ones
      included and duplicate copies left out, in destination order (its
      only caller, ``Node._send``, has already checked that the sender is
      active);
    * ``Node.deliver``: a ``"net"`` ``deliver`` row, or ``deliver_to_crashed``
      when the node does not accept the message (the run loop calls it for
      every delivery, straight from its queue entry);
    * ``Node._timer_fired``: a ``"node"`` ``timer`` row when the owner is
      active, before the protocol handles the timer.

    Install it before the simulator is built: the network reads each
    node's ``deliver`` when it binds, so the trace holds every row.
    """
    from repro.sim.lifecycle import Node, ProcessStatus

    deliver = Node.deliver
    timer_fired = Node._timer_fired

    def trace_sends(network, message, src, sent):
        record = network._simulator.trace.record
        for envelope in sent:
            record(
                envelope.send_time, "net", "send", pid=src, dst=envelope.dst, kind=message.kind,
                msg_id=envelope.msg_id, dropped=envelope.dropped,
            )

    def tracing_deliver(self, message, src, msg_id):
        accepted = deliver(self, message, src, msg_id)
        self.simulator.trace.record(
            self.simulator.now(), "net", "deliver" if accepted else "deliver_to_crashed",
            pid=self.pid, src=src, kind=message.kind, msg_id=msg_id,
        )
        return accepted

    def tracing_timer_fired(self, name):
        if self.status is ProcessStatus.ACTIVE and self.process is not None:
            self.simulator.trace.record(self.simulator.now(), "node", "timer", pid=self.pid, name=name)
        timer_fired(self, name)

    _watch_sends(monkeypatch, trace_sends)
    monkeypatch.setattr(Node, "deliver", tracing_deliver)
    monkeypatch.setattr(Node, "_timer_fired", tracing_timer_fired)


def make_run_record(
    protocol: str = "modified-paxos",
    workload: str = "partitioned-chaos",
    n: int = 3,
    seed: int = 1,
    lag: Optional[float] = 2.5,
    key: Optional[str] = None,
    **tags: Any,
):
    """A synthetic, fully populated RunRecord (no simulation involved)."""
    from repro.consensus.values import DecisionOutcome, RunOutcome
    from repro.results.record import RunRecord

    outcome = RunOutcome(
        protocol=protocol,
        n=n,
        ts=10.0,
        delta=1.0,
        seed=seed,
        decisions=[
            DecisionOutcome(pid=pid, value=f"v{pid % 2}", time=10.0 + (lag or 0.0),
                            after_stability=lag or 0.0)
            for pid in range(n)
        ],
        proposals={pid: f"v{pid % 2}" for pid in range(n)},
        messages_sent=10 * n,
        messages_delivered=9 * n,
        duration=12.5,
        extra={"max_lag_after_ts": lag, "safety_valid": True, "events": 100},
    )
    return RunRecord.from_outcome(
        outcome,
        workload=workload,
        key=key if key is not None else f"{protocol}/{workload}/feedc0ffee00/n{n}-ts10-d1-s{seed}",
        tags={"protocol": protocol, "seed": seed, "n": n, **tags},
    )


@dataclass(frozen=True)
class SentMessage:
    """One message captured by the harness."""

    message: Any
    dst: int


@dataclass
class ContextHarness:
    """Drives a single protocol process without a simulator.

    Typical usage::

        harness = ContextHarness(pid=0, n=3)
        process = ModifiedPaxosProcess()
        harness.start(process, initial_value="v0")
        harness.deliver(Phase1a(mbal=7), sender=1)
        assert harness.sent_of_kind("phase1b")

    ``harness.timers`` maps each pending timer name to the local delay it was
    last set with.  As on a real node, setting a name again replaces its
    timer, and :meth:`fire_timer` removes the name before the process sees it.
    """

    pid: int = 0
    n: int = 3
    params: TimingParams = field(default_factory=make_params)
    initial_local_time: float = 0.0

    def __post_init__(self) -> None:
        self.storage = StableStore(owner=self.pid)
        self.sent: List[SentMessage] = []
        self.timers: Dict[str, float] = {}
        self.decisions: List[Any] = []
        self.emitted: List[Tuple[str, dict]] = []
        self._local_time = self.initial_local_time
        self.process: Optional[Process] = None
        self.ctx = self._build_context()

    # -- context construction ------------------------------------------------
    def _build_context(self) -> ProcessContext:
        return ProcessContext(
            pid=self.pid,
            n=self.n,
            params=self.params,
            storage=self.storage,
            rng=SeededRng(self.pid, label=f"test-p{self.pid}"),
            send=self._send,
            set_timer=self._set_timer,
            decide=self.decisions.append,
            local_time=lambda: self._local_time,
            emit=lambda event, fields: self.emitted.append((event, fields)),
        )

    def _send(self, message: Any, dsts: Tuple[int, ...]) -> None:
        self.sent.extend(SentMessage(message=message, dst=dst) for dst in dsts)

    def _set_timer(self, name: str, local_delay: float) -> None:
        self.timers[name] = local_delay

    # -- driving the process ----------------------------------------------------
    def start(self, process: Process, initial_value: Any = "v") -> Process:
        """Bind the process to this harness and run its ``on_start``."""
        self.process = process
        process.initial_value = initial_value
        process.bind(self.ctx)
        process.on_start()
        return process

    def restart(self, process: Process, initial_value: Any = "v") -> Process:
        """Simulate a crash + restart: new process object, same storage."""
        self.sent.clear()
        self.timers.clear()
        self.ctx = self._build_context()
        return self.start(process, initial_value=initial_value)

    def deliver(self, message: Any, sender: int) -> None:
        assert self.process is not None, "call start() first"
        self.process.on_message(message, sender)

    def fire_timer(self, name: str) -> None:
        """Fire a pending timer by name (removing it, like the real kernel)."""
        assert self.process is not None, "call start() first"
        self.timers.pop(name, None)
        self.process.on_timer(name)

    def advance_local_time(self, amount: float) -> None:
        self._local_time += amount

    # -- inspection --------------------------------------------------------------
    def sent_of_kind(self, kind: str) -> List[SentMessage]:
        return [item for item in self.sent if type(item.message).kind == kind]

    def destinations_of_kind(self, kind: str) -> List[int]:
        return [item.dst for item in self.sent_of_kind(kind)]

    def clear_sent(self) -> None:
        self.sent.clear()

    def emitted_events(self, name: str) -> List[dict]:
        return [fields for event, fields in self.emitted if event == name]


class ScriptedCluster:
    """A hand-scheduled cluster of protocol processes (no simulator).

    Every process runs against its own :class:`ContextHarness`; messages the
    processes send are collected into a pending pool instead of being
    delivered.  The test decides which pending messages to deliver, in which
    order, and which to drop — making it easy to reproduce the classic
    adversarial interleavings (dueling proposers, delayed accept messages,
    value locking across ballots) deterministically.
    """

    def __init__(self, factory, n: int, params: Optional[TimingParams] = None,
                 values: Optional[List[Any]] = None) -> None:
        self.n = n
        params = params or make_params()
        self.harnesses: Dict[int, ContextHarness] = {}
        self.processes: Dict[int, Process] = {}
        # pending messages: list of (src, dst, message)
        self.pending: List[Tuple[int, int, Any]] = []
        for pid in range(n):
            harness = ContextHarness(pid=pid, n=n, params=params)
            process = factory(pid)
            value = values[pid] if values is not None and pid < len(values) else f"value-{pid}"
            harness.start(process, initial_value=value)
            self.harnesses[pid] = harness
            self.processes[pid] = process
            self._collect(pid)

    # -- message plumbing ----------------------------------------------------
    def _collect(self, pid: int) -> None:
        harness = self.harnesses[pid]
        for item in harness.sent:
            self.pending.append((pid, item.dst, item.message))
        harness.clear_sent()

    def pending_of_kind(
        self, kind: str, dst: Optional[int] = None, src: Optional[int] = None
    ) -> List[Tuple[int, int, Any]]:
        return [
            entry
            for entry in self.pending
            if type(entry[2]).kind == kind
            and (dst is None or entry[1] == dst)
            and (src is None or entry[0] == src)
        ]

    def deliver(self, entry: Tuple[int, int, Any]) -> None:
        """Deliver one specific pending message (and collect any replies)."""
        self.pending.remove(entry)
        src, dst, message = entry
        self.processes[dst].on_message(message, src)
        self._collect(dst)

    def deliver_kind(self, kind: str, dst: Optional[int] = None, src: Optional[int] = None,
                     limit: Optional[int] = None) -> int:
        """Deliver all (or ``limit``) pending messages of one kind; returns how many."""
        count = 0
        for entry in list(self.pending_of_kind(kind, dst, src)):
            if limit is not None and count >= limit:
                break
            if entry in self.pending:
                self.deliver(entry)
                count += 1
        return count

    def drop_kind(self, kind: str, dst: Optional[int] = None, src: Optional[int] = None) -> int:
        """Silently drop pending messages of one kind; returns how many."""
        victims = self.pending_of_kind(kind, dst, src)
        for entry in victims:
            self.pending.remove(entry)
        return len(victims)

    def deliver_all(self, max_messages: int = 10_000) -> None:
        """Keep delivering everything until no messages are pending."""
        delivered = 0
        while self.pending and delivered < max_messages:
            self.deliver(self.pending[0])
            delivered += 1

    def fire_timer(self, pid: int, name: str) -> None:
        self.harnesses[pid].fire_timer(name)
        self._collect(pid)

    # -- outcome inspection -------------------------------------------------------
    def decisions(self) -> Dict[int, Any]:
        return {
            pid: harness.decisions[0]
            for pid, harness in self.harnesses.items()
            if harness.decisions
        }

    def decided_values(self) -> set:
        return set(self.decisions().values())
