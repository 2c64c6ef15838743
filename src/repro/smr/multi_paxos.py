"""Multi-decree Modified Paxos: one ballot (and one phase 1) for every slot.

The session machinery — session-gated Start Phase 1, the ≥4δ session timer,
the ε keep-alive, session-entry re-broadcasts — is
:class:`repro.core.sessions.SessionProcess`, the driver the single-decree
algorithm in :mod:`repro.core.modified_paxos` extends too; what changes is
that a ballot covers the whole log:

* a ``MultiPhase1b`` promise reports the sender's accepted values for *all*
  undecided slots, plus the tail of its decided log from the prefix the
  ballot owner last announced in a phase 1a (the entries the owner may
  lack) and the sender's own prefix (from which the owner pushes back the
  decisions the sender lacks, the catch-up for restarted processes), so a
  promise costs the same however long the log is;
* once the owner of the current ballot holds promises from a majority it is
  *established*: it re-proposes every slot that any promise voted for (and
  fills gaps with no-ops), and from then on a new command costs only one
  phase-2 round — the paper's "phase 1 is executed in advance for all
  instances ... all nonfaulty processes decide within 3 message delays when
  the system is stable";
* commands submitted at a non-owner are forwarded to the owner of the ballot
  that process has promised (one extra message delay);
* any message from the owner of the current ballot re-arms the session timer,
  so a healthy leader is not interrupted every ``4δ``.

Log entries are ``(command_id, command)`` pairs so duplicate submissions can
be recognised; like any at-least-once SMR pipeline, a command can in rare
interleavings be decided in two slots (the owner deduplicates against its own
log and in-flight proposals, but a brand-new leader may not know about an
in-flight duplicate).  The key-value store in :mod:`repro.smr.state_machine`
is idempotent under such duplicates.

Client submissions come from a :class:`~repro.smr.workload.ScheduleSpec`;
:class:`MultiPaxosSmrBuilder` expands it into each replica's submission list
when it is attached to a simulator, and each replica arms one timer per
submission each time it starts or restarts (one already past fires at once).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.consensus.base import ProtocolBuilder
from repro.consensus.quorum import ValueQuorum
from repro.core.sessions import SessionProcess, initial_ballot, owner_of
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.smr.log import ReplicatedLog
from repro.smr.messages import (
    CommandRequest,
    MultiPhase1a,
    MultiPhase1b,
    MultiPhase2a,
    MultiPhase2b,
    SlotDecision,
)
from repro.smr.workload import Entry, ScheduleSpec

__all__ = ["MultiPaxosSmrProcess", "MultiPaxosSmrBuilder"]

NOOP = ("noop",)

# Field prefixes of the per-slot durable state (see on_start).
_ACCEPTED = "accepted:"
_LOG = "log:"


class MultiPaxosSmrProcess(SessionProcess):
    """One replica of the multi-decree Modified Paxos state-machine service."""

    PHASE1A = MultiPhase1a
    SUBMIT_TIMER_PREFIX = "submit-"

    def __init__(self, schedule: Optional[List[Entry]] = None, on_learn: Optional[Callable] = None):
        super().__init__()
        self._schedule = list(schedule or [])
        # Called with each newly learned command id, and with None once the
        # log is restored on start.
        self._on_learn = on_learn

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        # Volatile state.
        self._promises: Dict[int, Dict[int, MultiPhase1b]] = {}
        self._accept_votes = ValueQuorum(self.quorum)
        self._proposed_ids: set[str] = set()  # command ids this process proposed
        # pid -> highest log prefix heard in that pid's phase 1a: a lower
        # bound on its prefix, since a log only grows (and survives restarts).
        self._peer_prefix: Dict[int, int] = {}
        self._established_ballot: Optional[int] = None
        self._next_slot = 0
        self._pending: Dict[str, Any] = {}  # command_id -> command awaiting a decision
        self._seen_requests: set[str] = set()

        # Durable state: the ballot under ``proto:mbal``, then one key per
        # slot — ``proto:accepted:<slot>`` holds the (ballot, value) vote and
        # ``proto:log:<slot>`` the decided command.  Each write stores only
        # what changed, so a write costs the same however long the log is.
        # In memory, ``accepted`` holds the votes of undecided slots only.
        self.mbal = self.recall("mbal", initial_ballot(self.pid, self.n))
        votes: Dict[int, Tuple[int, Any]] = {}
        decided: Dict[int, Any] = {}
        for key in self.ctx.storage:
            field = key.removeprefix("proto:")
            if field.startswith(_ACCEPTED):
                votes[int(field[len(_ACCEPTED):])] = self.recall(field)
            elif field.startswith(_LOG):
                decided[int(field[len(_LOG):])] = self.recall(field)
        self.log = ReplicatedLog.restore(decided)
        self.accepted = {slot: vote for slot, vote in votes.items() if slot not in self.log}

        if self._on_learn is not None:
            self._on_learn(self, None)

        self._start_sessions()
        self._schedule_submissions()

    @property
    def is_established_leader(self) -> bool:
        """Whether this process completed phase 1 for its current ballot."""
        return (
            self._established_ballot == self.mbal and owner_of(self.mbal, self.n) == self.pid
        )

    # ------------------------------------------------------------------ timers
    def _schedule_submissions(self) -> None:
        now_local = self.ctx.local_time()
        for index, (submit_local, command_id, command) in enumerate(self._schedule):
            delay = max(0.0, submit_local - now_local)
            self.ctx.set_timer(f"{self.SUBMIT_TIMER_PREFIX}{index}", delay)

    def on_timer(self, name: str) -> None:
        if name.startswith(self.SUBMIT_TIMER_PREFIX):
            index = int(name[len(self.SUBMIT_TIMER_PREFIX):])
            _, command_id, command = self._schedule[index]
            self._submit(command_id, command)
        else:
            super().on_timer(name)

    def _after_keepalive(self) -> None:
        self._dispatch_pending()

    # ------------------------------------------------------------------ client commands
    def _submit(self, command_id: str, command: Any) -> None:
        """A client command arrives at this replica."""
        self._seen_requests.add(command_id)
        self._pending[command_id] = command
        self.ctx.emit("command_submit", command_id=command_id)
        self._dispatch_pending()

    def _dispatch_pending(self) -> None:
        """Assign pending commands if leading, otherwise forward them."""
        undecided = {
            command_id: command
            for command_id, command in self._pending.items()
            if not self._already_logged(command_id)
        }
        if not undecided:
            return
        if self.is_established_leader:
            for command_id, command in sorted(undecided.items()):
                self._assign(command_id, command)
            return
        owner = owner_of(self.mbal, self.n)
        if owner != self.pid:
            for command_id, command in sorted(undecided.items()):
                self.ctx.send(
                    CommandRequest(command_id=command_id, command=command, origin=self.pid),
                    owner,
                )

    def _already_logged(self, command_id: str) -> bool:
        return command_id in self.log.command_ids

    def _assign(self, command_id: str, command: Any) -> None:
        if self._already_logged(command_id) or command_id in self._proposed_ids:
            return
        slot = self._next_slot
        self._next_slot += 1
        self.ctx.emit("command_assign", command_id=command_id, slot=slot, ballot=self.mbal)
        self._send_phase2a(self.mbal, slot, (command_id, command))

    # ------------------------------------------------------------------ messages
    def on_message(self, message: Message, sender: int) -> None:
        ballot = getattr(message, "mbal", -1)
        if ballot >= 0:
            self._tracker.observe(ballot, sender)
        # Leader-stability acknowledgement (the paper's "appropriate
        # acknowledgement messages"): any message from the *owner* of our
        # current ballot is evidence that the serving leader is alive, so the
        # session timer is re-armed instead of expiring and churning ballots
        # every 4δ while the service is healthy.  If the owner crashes its ε
        # keep-alives stop and the timer expires ≥ 4δ later, restoring the
        # single-decree recovery behaviour.
        if ballot == self.mbal and sender == ballot % self.ctx.n:  # ``owner_of`` inlined (hot)
            self._arm_session_timer()

        if isinstance(message, MultiPhase1a):
            if message.prefix > self._peer_prefix.get(sender, 0):
                self._peer_prefix[sender] = message.prefix
            self._on_phase1a(message)
        elif isinstance(message, MultiPhase1b):
            self._on_phase1b(message, sender)
        elif isinstance(message, MultiPhase2a):
            self._on_phase2a(message)
        elif isinstance(message, MultiPhase2b):
            self._on_phase2b(message, sender)
        elif isinstance(message, SlotDecision):
            self._learn(message.slot, message.value)
        elif isinstance(message, CommandRequest):
            self._on_command_request(message)

        self._try_start_phase1()

    def _on_command_request(self, message: CommandRequest) -> None:
        if message.command_id in self._seen_requests:
            return
        self._seen_requests.add(message.command_id)
        self._pending.setdefault(message.command_id, message.command)
        self._dispatch_pending()

    # -- phase 1 ----------------------------------------------------------------
    def _broadcast_phase1a(self) -> None:
        self._sent_recently = True
        self.ctx.broadcast(MultiPhase1a(mbal=self.mbal, prefix=self.log.prefix))

    def _promise(self, ballot: int) -> MultiPhase1b:
        # The promise goes to the ballot's owner, which holds every slot below
        # the prefix it last announced (not that of the phase 1a answered
        # here, whose sender may be any replica re-broadcasting the ballot).
        log = self.log
        cut = min(self._peer_prefix.get(ballot % self.ctx.n, 0), log.prefix)
        return MultiPhase1b(
            mbal=ballot,
            votes=tuple(sorted(self.accepted.items())),
            decided=log.items_from(cut),
            prefix=log.prefix,
        )

    def _on_phase1b(self, message: MultiPhase1b, sender: int) -> None:
        # Decided entries are useful regardless of the ballot.  ``_learn``
        # ignores the ones the local log holds and rejects a conflicting one.
        for slot, value in message.decided:
            self._learn(slot, value)
        if message.mbal % self.ctx.n != self.pid or message.mbal != self.mbal:
            return
        # Targeted catch-up: the promise shows which decisions the sender is
        # missing (a replica that restarted after stabilization, say); push
        # them directly so it converges within O(δ) of its restart.  The
        # sender holds every slot below its prefix and lists every entry it
        # holds from there on.
        if sender != self.pid:
            listed = {slot for slot, _ in message.decided}
            for slot, value in self.log.items_from(message.prefix):
                if slot not in listed:
                    self.ctx.send(SlotDecision(slot=slot, value=value), sender)
        promises = self._promises.setdefault(message.mbal, {})
        promises.setdefault(sender, message)
        if len(promises) >= self.quorum and self._established_ballot != message.mbal:
            self._establish(message.mbal, promises)

    def _establish(self, ballot: int, promises: Dict[int, MultiPhase1b]) -> None:
        """Complete phase 1 for the whole log and become the serving leader."""
        best_votes: Dict[int, Tuple[int, Any]] = {}
        for promise in promises.values():
            for slot, (voted_bal, voted_val) in promise.votes_dict().items():
                if slot not in best_votes or voted_bal > best_votes[slot][0]:
                    best_votes[slot] = (voted_bal, voted_val)
        highest_known = max(
            [self.log.highest_slot]
            + [slot for slot in best_votes]
            + [slot for slot in self.accepted],
            default=-1,
        )
        self._established_ballot = ballot
        self._next_slot = highest_known + 1
        self.ctx.emit("leader_established", ballot=ballot, next_slot=self._next_slot)
        # Re-propose every voted, undecided slot and fill gaps with no-ops so
        # the decided prefix can become contiguous.
        for slot in range(0, self._next_slot):
            if slot in self.log:
                continue
            if slot in best_votes:
                value = best_votes[slot][1]
            else:
                value = (f"noop-{ballot}-{slot}", NOOP)
            self._send_phase2a(ballot, slot, value)
        self._dispatch_pending()

    # -- phase 2 --------------------------------------------------------------------
    def _send_phase2a(self, ballot: int, slot: int, value: Any) -> None:
        if isinstance(value, tuple) and len(value) == 2:
            self._proposed_ids.add(value[0])
        self._sent_recently = True
        self.ctx.emit("phase2a", ballot=ballot, slot=slot)
        self.ctx.broadcast(MultiPhase2a(mbal=ballot, slot=slot, value=value))

    def _accept(self, message: MultiPhase2a) -> None:
        vote = (message.mbal, message.value)
        if message.slot not in self.log:
            self.accepted[message.slot] = vote
        self.persist(mbal=self.mbal, **{f"{_ACCEPTED}{message.slot}": vote})
        self.ctx.broadcast(
            MultiPhase2b(mbal=message.mbal, slot=message.slot, value=message.value)
        )

    def _on_phase2b(self, message: MultiPhase2b, sender: int) -> None:
        key = (message.mbal, message.slot)
        self._accept_votes.add(key, sender, message.value)
        if self._accept_votes.reached(key):
            value = self._accept_votes.quorum_value(key)
            if value is not None:
                self._learn(message.slot, value)

    def _learn(self, slot: int, value: Any) -> None:
        if not self.log.learn(slot, value):
            return
        self.accepted.pop(slot, None)
        self.persist(**{f"{_LOG}{slot}": value})
        command_id = value[0] if isinstance(value, tuple) and len(value) == 2 else None
        self.ctx.emit("slot_decide", slot=slot, command_id=command_id)
        if command_id is not None:
            self._pending.pop(command_id, None)
            if self._on_learn is not None:
                self._on_learn(self, command_id)
        if slot >= self._next_slot:
            self._next_slot = slot + 1

    # ------------------------------------------------------------------ ballot bookkeeping
    def _ballot_changed(self) -> None:
        self.persist(mbal=self.mbal)
        if self._established_ballot is not None and self._established_ballot != self.mbal:
            self._established_ballot = None


class MultiPaxosSmrBuilder(ProtocolBuilder):
    """Builds SMR replicas, each with its own client command schedule, and drives SMR runs.

    ``schedule`` is expanded once, in :meth:`attach`, which knows ``n``:
    :attr:`entries` then holds each replica's submissions by submit time
    and :attr:`command_ids` every scheduled id, sorted.
    """

    name = "multi-paxos-smr"

    def __init__(self, schedule: ScheduleSpec = ScheduleSpec()) -> None:
        super().__init__()
        self.schedule = schedule
        self.entries: Dict[int, List[Entry]] = {}
        self.command_ids: Tuple[str, ...] = ()
        # While run_to_stop waits: the scheduled ids and the expected replicas' nodes.
        self._awaited_ids: frozenset = frozenset()
        self._watched: Optional[Dict[int, Any]] = None

    def attach(self, simulator) -> None:
        """Bind to ``simulator`` and expand the schedule for its ``n``.

        A submission past the horizon would never fire, so it is rejected.
        """
        super().attach(simulator)
        self.entries = self.schedule.expand(simulator.config.n)
        self.command_ids = tuple(sorted(
            command_id for entries in self.entries.values() for _, command_id, _ in entries
        ))
        max_time = simulator.config.max_time
        for pid, entries in sorted(self.entries.items()):
            for submit_at, command_id, _ in entries:
                if submit_at > max_time:
                    raise ConfigurationError(
                        f"command {command_id!r} is scheduled at p{pid} local time "
                        f"{submit_at:g}, past the scenario horizon max_time={max_time:g}; "
                        "it would silently never be submitted — extend max_time or move "
                        "the submission earlier"
                    )

    def create(self, pid: int) -> MultiPaxosSmrProcess:
        return MultiPaxosSmrProcess(schedule=self.entries.get(pid), on_learn=self._learned)

    def run_to_stop(self, simulator, deciders) -> None:
        """Run until every expected replica's *current* incarnation has learned every scheduled command.

        A replica that is down is not caught up, even with a complete log on disk.
        With nothing scheduled, the run ends at the horizon.
        """
        self._awaited_ids = frozenset(self.command_ids)
        if self._awaited_ids:
            self._watched = {pid: simulator.nodes[pid] for pid in deciders}
        try:
            simulator.run()
        finally:
            self._watched = None

    def _learned(self, process: MultiPaxosSmrProcess, command_id: Optional[str]) -> None:
        # The stop condition can only become true when an expected replica
        # learns a scheduled command or restores its log (``command_id`` None).
        watched, awaited = self._watched, self._awaited_ids
        if watched is None or process.pid not in watched or (
            command_id is not None and command_id not in awaited
        ):
            return
        for node in watched.values():
            if node.process is None or not awaited <= node.process.log.command_ids:
                return
        self.simulator.halt()

    def check_safety(self, simulator, deciders):
        # repro.smr.runner imports this module, so it is looked up at call time.
        from repro.smr import runner

        return runner.check_smr_safety(simulator)

    def build_outcome(self, simulator, scenario, protocol, safety):
        from repro.smr import runner

        return runner.compute_smr_outcome(simulator, scenario, self, safety)

    def invariant_checks(self):
        from repro.analysis.invariants import check_session_entry_rule

        return {"session-entry-rule": check_session_entry_rule}
