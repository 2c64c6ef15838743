"""Session arithmetic, per-session sender tracking, and the session driver.

The paper defines the *session* of a ballot number ``b`` as ``⌊b/N⌋`` and
says a process is *in* session ``⌊mbal/N⌋``.  Ballots are owned: ballot
``b`` belongs to process ``b mod N``, and when process ``p`` starts a new
ballot it picks the unique ballot of the next session that it owns,
``(⌊mbal/N⌋ + 1)·N + p``.

:class:`SessionProcess` is the session driver of Section 4 (the rules are
described in :mod:`repro.core.modified_paxos`): session-gated Start Phase 1,
the ≥4δ session timer, session-entry broadcasts and the ε keep-alive.  Both
Modified Paxos variants extend it, single-decree and the SMR service.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, ClassVar, Dict, Set, Type

from repro.consensus.base import ConsensusProcess
from repro.errors import ConfigurationError
from repro.net.message import Message

__all__ = [
    "session_of",
    "owner_of",
    "ballot_for",
    "initial_ballot",
    "next_session_ballot",
    "SessionTracker",
    "SessionProcess",
]


def _check_n(n: int) -> None:
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")


def session_of(ballot: int, n: int) -> int:
    """The session a ballot belongs to (``⌊b/N⌋``)."""
    _check_n(n)
    if ballot < 0:
        raise ConfigurationError(f"ballot must be non-negative, got {ballot}")
    return ballot // n


def owner_of(ballot: int, n: int) -> int:
    """The process that owns a ballot (``b mod N``)."""
    _check_n(n)
    if ballot < 0:
        raise ConfigurationError(f"ballot must be non-negative, got {ballot}")
    return ballot % n


def ballot_for(session: int, owner: int, n: int) -> int:
    """The unique ballot of ``session`` owned by ``owner``."""
    _check_n(n)
    if session < 0:
        raise ConfigurationError(f"session must be non-negative, got {session}")
    if not 0 <= owner < n:
        raise ConfigurationError(f"owner must be a pid in [0, {n}), got {owner}")
    return session * n + owner


def initial_ballot(pid: int, n: int) -> int:
    """The initial ballot of a process (the paper sets ``mbal[p] = p``)."""
    return ballot_for(0, pid, n)


def next_session_ballot(current_ballot: int, pid: int, n: int) -> int:
    """The ballot Start Phase 1 switches to: ``(⌊mbal/N⌋ + 1)·N + p``."""
    return ballot_for(session_of(current_ballot, n) + 1, pid, n)


class SessionTracker:
    """Tracks which processes have been heard from, per session.

    Condition (ii) of the Start Phase 1 rule requires a process to have
    "received a message with its current session from a majority of the
    processes".  Every incoming protocol message carries a ballot, hence a
    session; the tracker records the sender against that session.

    The tracker is volatile: a restarted process rebuilds it from fresh
    traffic (the ε keep-alive guarantees fresh traffic arrives within
    ``O(δ)`` once the system is stable).
    """

    def __init__(self, n: int) -> None:
        _check_n(n)
        self.n = n
        self._senders: Dict[int, Set[int]] = defaultdict(set)

    def observe(self, ballot: int, sender: int) -> None:
        """Record that ``sender`` sent a message whose ballot is ``ballot``."""
        if ballot < 0 or not 0 <= sender < self.n:
            raise ConfigurationError(f"need ballot >= 0 and sender in [0, {self.n}), got {ballot}, {sender}")
        # ``session_of`` inlined: this runs on every delivered protocol message.
        self._senders[ballot // self.n].add(sender)

    def count_in(self, session: int) -> int:
        return len(self._senders.get(session, ()))

    def heard_majority_in(self, session: int) -> bool:
        """Whether a strict majority has been heard from in ``session``."""
        return self.count_in(session) >= self.n // 2 + 1

    def prune_below(self, session: int) -> None:
        """Forget sessions lower than ``session`` (they can never matter again)."""
        for old in [s for s in self._senders if s < session]:
            del self._senders[old]


class SessionProcess(ConsensusProcess):
    """The session driver shared by both Modified Paxos variants.

    Subclasses set :attr:`PHASE1A`, restore ``mbal`` before :meth:`_start_sessions`,
    and implement ``_promise(ballot)`` (the phase 1b), ``_accept(message)`` (vote
    for a phase 2a of ballot ``mbal``) and ``_ballot_changed()`` (persist ``mbal``).
    """

    SESSION_TIMER = "session"
    KEEPALIVE_TIMER = "keepalive"
    PHASE1A: ClassVar[Type[Message]]
    mbal: int

    # ------------------------------------------------------------------ lifecycle
    def _start_sessions(self) -> None:
        """Rebuild the volatile session state, announce the session, arm both timers."""
        self._tracker = SessionTracker(self.n)
        self._session_timer_expired = False
        self._sent_recently = False
        self.ctx.emit("session_enter", session=self.session, ballot=self.mbal, via="start")
        self._broadcast_phase1a()
        self._arm_session_timer()
        self._arm_keepalive()

    @property
    def session(self) -> int:
        """The session this process is currently in (``⌊mbal/N⌋``)."""
        return session_of(self.mbal, self.n)

    # ------------------------------------------------------------------ timers
    def on_timer(self, name: str) -> None:
        if name == self.SESSION_TIMER:
            self._session_timer_expired = True
            self._try_start_phase1()
        elif name == self.KEEPALIVE_TIMER:
            self._on_keepalive()

    def _arm_session_timer(self) -> None:
        self.ctx.set_timer(self.SESSION_TIMER, self.ctx.params.session_timeout_local)
        self._session_timer_expired = False

    def _arm_keepalive(self) -> None:
        # Once decided, the keep-alive degrades into a slower decision
        # re-broadcast; before that it enforces the ε rule.
        period = self.delta if self.has_decided else self.epsilon
        self.ctx.set_timer(self.KEEPALIVE_TIMER, period * (1.0 + self.rho))

    def _on_keepalive(self) -> None:
        if not self._sent_recently:
            # The ε rule: no phase 1a/2a went out during the last interval.
            self._broadcast_phase1a()
        self._sent_recently = False
        self._after_keepalive()
        self._arm_keepalive()

    def _after_keepalive(self) -> None:
        """Hook: runs after each ε check, before the keep-alive is re-armed."""

    # ------------------------------------------------------------------ phase 1a / 2a
    def _on_phase1a(self, message: Any) -> None:
        if message.mbal > self.mbal:
            self._advance_ballot(message.mbal, via="phase1a")
        if message.mbal >= self.mbal:
            # Promise to the ballot's owner.  Responding on equality (rather
            # than the paper's strict inequality) lets the owner count its own
            # promise, which is necessary when only a bare majority is alive;
            # it is safe because the promise constraint (mbal >= message.mbal)
            # already holds.
            # ``owner_of`` inlined (hot; n was checked when the tracker was built).
            self.ctx.send(self._promise(message.mbal), message.mbal % self.ctx.n)

    def _on_phase2a(self, message: Any) -> None:
        if message.mbal < self.mbal:
            return
        if message.mbal > self.mbal:
            self._advance_ballot(message.mbal, via="phase2a")
        self._accept(message)

    # ------------------------------------------------------------------ Start Phase 1, ballots, sessions
    def _try_start_phase1(self) -> None:
        if not self._session_timer_expired or self.has_decided:
            return
        if self.session > 0 and not self._tracker.heard_majority_in(self.session):
            return
        new_ballot = next_session_ballot(self.mbal, self.pid, self.n)
        self.ctx.emit(
            "start_phase1",
            ballot=new_ballot,
            session=session_of(new_ballot, self.n),
            previous_session=self.session,
        )
        self._advance_ballot(new_ballot, via="start_phase1")

    def _advance_ballot(self, new_ballot: int, via: str) -> None:
        old_session = self.session
        self.mbal = new_ballot
        self._ballot_changed()
        if session_of(new_ballot, self.n) > old_session:
            self._enter_session(via)

    def _enter_session(self, via: str) -> None:
        session = self.session
        self._tracker.prune_below(session)
        self._session_timer_expired = False
        self.ctx.emit("session_enter", session=session, ballot=self.mbal, via=via)
        self._arm_session_timer()
        self._broadcast_phase1a()

    def _broadcast_phase1a(self) -> None:
        self._sent_recently = True
        self.ctx.broadcast(self.PHASE1A(mbal=self.mbal))
