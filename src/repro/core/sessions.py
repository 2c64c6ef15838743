"""Session arithmetic and per-session sender tracking.

The paper defines the *session* of a ballot number ``b`` as ``⌊b/N⌋`` and
says a process is *in* session ``⌊mbal/N⌋``.  Ballots are owned: ballot
``b`` belongs to process ``b mod N``, and when process ``p`` starts a new
ballot it picks the unique ballot of the next session that it owns,
``(⌊mbal/N⌋ + 1)·N + p``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Set

from repro.errors import ConfigurationError

__all__ = [
    "session_of",
    "owner_of",
    "ballot_for",
    "initial_ballot",
    "next_session_ballot",
    "SessionTracker",
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
        if not 0 <= sender < self.n:
            raise ConfigurationError(f"sender must be a pid in [0, {self.n}), got {sender}")
        self._senders[session_of(ballot, self.n)].add(sender)

    def count_in(self, session: int) -> int:
        return len(self._senders.get(session, ()))

    def heard_majority_in(self, session: int) -> bool:
        """Whether a strict majority has been heard from in ``session``."""
        return self.count_in(session) >= self.n // 2 + 1

    def prune_below(self, session: int) -> None:
        """Forget sessions lower than ``session`` (they can never matter again)."""
        for old in [s for s in self._senders if s < session]:
            del self._senders[old]
