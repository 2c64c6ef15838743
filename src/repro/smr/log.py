"""The replicated log: slot-indexed decided commands.

Each process owns one :class:`ReplicatedLog`.  Safety of the underlying
consensus guarantees that two processes never learn different commands for
the same slot; the log enforces that locally (a conflicting ``learn`` raises)
so any protocol bug surfaces immediately rather than corrupting downstream
state machines.

Two views are maintained incrementally so that the per-message and per-event
work of the SMR layer does not grow with the log:

* :attr:`ReplicatedLog.command_ids` — the ids of every ``(command_id,
  command)`` entry, updated by each successful :meth:`~ReplicatedLog.learn`
  (the run's stop check and the leader's duplicate filter are set lookups);
* :meth:`ReplicatedLog.items` — the entries in slot order, sorted once and
  cached until the next successful ``learn``.

A rejected ``learn`` (negative slot, conflicting command) changes neither.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, KeysView, List, Optional, Set, Tuple

from repro.errors import ProtocolError

__all__ = ["ReplicatedLog"]


class ReplicatedLog:
    """Slot → decided command, with contiguous-prefix tracking."""

    def __init__(self) -> None:
        self._entries: Dict[int, Any] = {}
        #: Ids of the ``(command_id, command)`` entries learned so far.
        #: Maintained by :meth:`learn`; callers must treat it as read-only.
        self.command_ids: Set[Any] = set()
        self._items: Optional[Tuple[Tuple[int, Any], ...]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, slot: int) -> bool:
        return slot in self._entries

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        return iter(self.items())

    def slots(self) -> KeysView[int]:
        """Live view of the decided slots (supports set operations)."""
        return self._entries.keys()

    def items(self) -> Tuple[Tuple[int, Any], ...]:
        """``(slot, command)`` pairs in slot order (cached until the next learn)."""
        if self._items is None:
            self._items = tuple(sorted(self._entries.items()))
        return self._items

    def get(self, slot: int) -> Optional[Any]:
        """The decided command of ``slot``, or None if not yet learned."""
        return self._entries.get(slot)

    def learn(self, slot: int, command: Any) -> bool:
        """Record that ``slot`` decided ``command``.

        Returns True if this was new information.  Learning the same command
        again is a no-op; learning a *different* command for a decided slot
        raises (it would mean consensus safety was violated).
        """
        if slot < 0:
            raise ProtocolError(f"slot must be non-negative, got {slot}")
        if slot in self._entries:
            if self._entries[slot] != command:
                raise ProtocolError(
                    f"slot {slot} already decided {self._entries[slot]!r}, "
                    f"refusing to overwrite with {command!r}"
                )
            return False
        if isinstance(command, tuple) and len(command) == 2:
            self.command_ids.add(command[0])
        self._entries[slot] = command
        self._items = None
        return True

    # -- queries ---------------------------------------------------------------
    @property
    def highest_slot(self) -> int:
        """Highest decided slot, or −1 if the log is empty."""
        return max(self._entries) if self._entries else -1

    def contiguous_prefix(self) -> List[Any]:
        """Commands of the slots before the first undecided one, in order (safe to apply)."""
        prefix = []
        slot = 0
        while slot in self._entries:
            prefix.append(self._entries[slot])
            slot += 1
        return prefix

    def snapshot(self) -> Dict[int, Any]:
        """Copy of the whole log."""
        return dict(self._entries)

    @classmethod
    def restore(cls, snapshot: Optional[Dict[int, Any]]) -> "ReplicatedLog":
        """A log holding ``snapshot``'s entries, learned in slot order."""
        log = cls()
        for slot, command in sorted((snapshot or {}).items(), key=lambda item: int(item[0])):
            log.learn(int(slot), command)
        return log
