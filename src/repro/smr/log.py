"""The replicated log: slot-indexed decided commands.

Each process owns one :class:`ReplicatedLog`.  Safety of the underlying
consensus guarantees that two processes never learn different commands for
the same slot; the log enforces that locally (a conflicting ``learn`` raises)
so any protocol bug surfaces immediately rather than corrupting downstream
state machines.

Three views are maintained incrementally so that the per-message and per-event
work of the SMR layer does not grow with the log:

* :attr:`ReplicatedLog.command_ids` — the ids of every ``(command_id,
  command)`` entry (the run's stop check and the leader's duplicate filter
  are set lookups);
* :attr:`ReplicatedLog.prefix` — the length of the contiguous decided
  prefix, advanced past each newly closed gap (amortised O(1) per learn);
* :attr:`ReplicatedLog.highest_slot` — the highest decided slot, so
  :meth:`~ReplicatedLog.items_from` walks only the tail it returns.

Each successful :meth:`~ReplicatedLog.learn` updates all three; a rejected
``learn`` (negative slot, conflicting command) changes none.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError

__all__ = ["ReplicatedLog"]


class ReplicatedLog:
    """Slot → decided command, with contiguous-prefix tracking."""

    def __init__(self) -> None:
        self._entries: Dict[int, Any] = {}
        #: Ids of the ``(command_id, command)`` entries learned so far.
        #: Maintained by :meth:`learn`; callers must treat it as read-only.
        self.command_ids: Set[Any] = set()
        #: Number of slots before the first undecided one (read-only).
        self.prefix = 0
        #: Highest decided slot, or −1 if the log is empty (read-only).
        self.highest_slot = -1

    def __contains__(self, slot: int) -> bool:
        return slot in self._entries

    def items_from(self, start: int) -> Tuple[Tuple[int, Any], ...]:
        """``(slot, command)`` pairs with ``slot >= start``, in slot order.

        Costs one step per slot from ``start`` to :attr:`highest_slot`, that
        is the entries returned plus the gaps between them.
        """
        entries = self._entries
        return tuple(
            (slot, entries[slot])
            for slot in range(max(start, 0), self.highest_slot + 1)
            if slot in entries
        )

    def learn(self, slot: int, command: Any) -> bool:
        """Record that ``slot`` decided ``command``.

        Returns True if this was new information.  Learning the same command
        again is a no-op; learning a *different* command for a decided slot
        raises (it would mean consensus safety was violated).
        """
        if slot < 0:
            raise ProtocolError(f"slot must be non-negative, got {slot}")
        entries = self._entries
        if slot in entries:
            if entries[slot] != command:
                raise ProtocolError(
                    f"slot {slot} already decided {entries[slot]!r}, "
                    f"refusing to overwrite with {command!r}"
                )
            return False
        if isinstance(command, tuple) and len(command) == 2:
            self.command_ids.add(command[0])
        entries[slot] = command
        if slot > self.highest_slot:
            self.highest_slot = slot
        if slot == self.prefix:
            # Each slot is stepped over once in the log's lifetime.
            prefix = slot + 1
            while prefix in entries:
                prefix += 1
            self.prefix = prefix
        return True

    # -- queries ---------------------------------------------------------------
    def contiguous_prefix(self) -> List[Any]:
        """Commands of the slots before the first undecided one, in order (safe to apply)."""
        entries = self._entries
        return [entries[slot] for slot in range(self.prefix)]

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
