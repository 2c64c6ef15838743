"""Message vocabulary of the multi-decree (SMR) variant.

The phase structure is the same as single-decree Modified Paxos, with two
differences:

* phase 1 covers *all* slots at once — a ``MultiPhase1b`` reply carries the
  sender's votes for every undecided slot it has accepted a value in, and
  the tail of its decided log from the ballot owner's known prefix on (the
  entries the owner may lack), and the sender's own prefix, which tells the
  owner which decisions to push back (the catch-up for restarted
  processes);
* phase 2 messages name the slot they are about.

Commands enter the system as :class:`CommandRequest` messages: a process that
is not the current ballot owner forwards the request to the owner of its
promised ballot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.net.message import Message

__all__ = [
    "CommandRequest",
    "MultiPhase1a",
    "MultiPhase1b",
    "MultiPhase2a",
    "MultiPhase2b",
    "SlotDecision",
]


@dataclass(frozen=True, slots=True)
class CommandRequest(Message):
    """A client command submitted at (or forwarded to) a process."""

    kind = "cmd_request"

    command_id: str
    command: Any
    origin: int


@dataclass(frozen=True, slots=True)
class MultiPhase1a(Message):
    """Prepare for every slot at once.

    ``prefix`` is the length of the sender's contiguous decided prefix when
    it sent the message.  A log only grows, so any prefix heard from a
    process is a lower bound on that process's prefix from then on; 0 (the
    default) claims nothing.
    """

    kind = "mphase1a"

    mbal: int
    prefix: int = 0


@dataclass(frozen=True, slots=True)
class MultiPhase1b(Message):
    """Promise carrying per-slot votes and the tail of the sender's decided log.

    ``votes`` maps each undecided slot the sender voted in → (voted ballot,
    voted value); ``decided`` maps slot → decided command for the sender's
    entries from the smaller of the ballot owner's known prefix and its own
    on; ``prefix`` is the sender's contiguous decided prefix (0, the
    default, claims nothing).
    ``votes`` and ``decided`` are tuples of pairs in slot order (not dicts)
    so the message stays hashable/frozen.
    """

    kind = "mphase1b"

    mbal: int
    votes: Tuple[Tuple[int, Tuple[int, Any]], ...]
    decided: Tuple[Tuple[int, Any], ...]
    prefix: int = 0

    def votes_dict(self) -> Dict[int, Tuple[int, Any]]:
        return dict(self.votes)


@dataclass(frozen=True, slots=True)
class MultiPhase2a(Message):
    """Accept request for one slot."""

    kind = "mphase2a"

    mbal: int
    slot: int
    value: Any


@dataclass(frozen=True, slots=True)
class MultiPhase2b(Message):
    """Accepted: the sender accepted ``value`` for ``slot`` in ballot ``mbal``."""

    kind = "mphase2b"

    mbal: int
    slot: int
    value: Any


@dataclass(frozen=True, slots=True)
class SlotDecision(Message):
    """Catch-up announcement of one decided slot."""

    kind = "slot_decision"

    slot: int
    value: Any
