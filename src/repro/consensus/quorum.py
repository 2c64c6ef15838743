"""Quorum arithmetic and quorum-tracking counters.

Every protocol in this repository counts "messages of some kind, for some
key (ballot, session, round), from distinct senders" and asks whether a
majority has been reached — possibly additionally split by the value the
messages carry.  :class:`QuorumCounter` and :class:`ValueQuorum` factor that
bookkeeping out so the protocol code reads like the paper's pseudo-code.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, Optional, Set

from repro.errors import ConfigurationError

__all__ = ["majority", "QuorumCounter", "ValueQuorum"]


def majority(n: int) -> int:
    """Size of a strict majority among ``n`` processes (``⌊N/2⌋ + 1``).

    The paper writes ``⌈N/2⌉``, which equals a strict majority for odd ``N``;
    for even ``N`` we use the safe strict majority so quorum intersection
    always holds.
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    return n // 2 + 1


class QuorumCounter:
    """Tracks, per key, the set of distinct senders heard from.

    Args:
        threshold: Number of distinct senders required for a quorum.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ConfigurationError("quorum threshold must be at least 1")
        self.threshold = threshold
        self._senders: Dict[Hashable, Set[int]] = defaultdict(set)

    def add(self, key: Hashable, sender: int) -> bool:
        """Record a message for ``key`` from ``sender``; True if quorum now met."""
        self._senders[key].add(sender)
        return self.reached(key)

    def count(self, key: Hashable) -> int:
        return len(self._senders.get(key, ()))

    def reached(self, key: Hashable) -> bool:
        return self.count(key) >= self.threshold

    def clear(self, key: Optional[Hashable] = None) -> None:
        """Forget one key's senders, or everything when ``key`` is None."""
        if key is None:
            self._senders.clear()
        else:
            self._senders.pop(key, None)


class ValueQuorum:
    """Tracks, per key, which value each distinct sender reported.

    Used for phase 2b counting ("a majority voted for ballot b, and they all
    carry value v") and for round-based vote counting.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ConfigurationError("quorum threshold must be at least 1")
        self.threshold = threshold
        self._votes: Dict[Hashable, Dict[int, Any]] = defaultdict(dict)

    def add(self, key: Hashable, sender: int, value: Any) -> None:
        """Record that ``sender`` reported ``value`` for ``key``.

        A sender's first report for a key wins; later duplicates (possible
        because the network may duplicate messages) are ignored.
        """
        self._votes[key].setdefault(sender, value)

    def count(self, key: Hashable) -> int:
        return len(self._votes.get(key, ()))

    def reached(self, key: Hashable) -> bool:
        return self.count(key) >= self.threshold

    def votes(self, key: Hashable) -> Dict[int, Any]:
        return dict(self._votes.get(key, ()))

    def quorum_value(self, key: Hashable) -> Optional[Any]:
        """A value reported by at least ``threshold`` distinct senders, if any."""
        votes = self._votes.get(key)
        if not votes:
            return None
        tally: Dict[Any, int] = defaultdict(int)
        for value in votes.values():
            tally[value] += 1
        for value, count in sorted(tally.items(), key=lambda item: repr(item[0])):
            if count >= self.threshold:
                return value
        return None

    def clear(self, key: Optional[Hashable] = None) -> None:
        if key is None:
            self._votes.clear()
        else:
            self._votes.pop(key, None)
