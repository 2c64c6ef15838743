"""Partition specifications.

A partition splits the process ids into disjoint groups; messages inside a
group are deliverable, messages across groups are dropped (while the
partition is in force).  The important special case for the paper is a
partition in which *no group holds a majority*: under such a partition no
quorum-based protocol can decide, which is how the chaos workloads guarantee
that nothing is decided before the stabilization time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import SeededRng

__all__ = ["PartitionSpec", "minority_groups"]


@dataclass(frozen=True)
class PartitionSpec:
    """A disjoint grouping of process ids.

    A pid -> reachable-set dict is built once, outside the dataclass fields,
    so :meth:`reachable` is one lookup while equality, hashing, ``repr`` and
    the pickled state still cover ``groups`` alone.
    """

    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        reachable: Dict[int, FrozenSet[int]] = {}
        for group in self.groups:
            members = frozenset(group)
            for pid in group:
                if pid in reachable:
                    raise ConfigurationError(f"pid {pid} appears in two partition groups")
                reachable[pid] = members
        object.__setattr__(self, "_reachable", reachable)

    def __getstate__(self) -> Dict[str, Any]:
        return {"groups": self.groups}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        object.__setattr__(self, "groups", state["groups"])
        self.__post_init__()

    @classmethod
    def of(cls, groups: Iterable[Iterable[int]]) -> "PartitionSpec":
        return cls(tuple(tuple(sorted(group)) for group in groups))

    @property
    def pids(self) -> List[int]:
        return sorted(pid for group in self.groups for pid in group)

    def reachable(self, src: int) -> FrozenSet[int]:
        """The pids a message from ``src`` reaches without crossing a boundary (``src`` included)."""
        members = self._reachable.get(src)
        return members if members is not None else frozenset((src,))

    def largest_group_size(self) -> int:
        return max((len(group) for group in self.groups), default=0)

    def blocks_majority(self, n: int) -> bool:
        """True if no group contains a strict majority of the ``n`` processes."""
        return self.largest_group_size() < n // 2 + 1


def minority_groups(n: int, rng: SeededRng) -> PartitionSpec:
    """Split ``n`` processes into random groups none of which is a majority.

    Every process belongs to exactly one group and the largest group has at
    most ``⌊N/2⌋`` members (one less than a strict majority), so no quorum
    can form inside any single group.
    """
    if n < 2:
        raise ConfigurationError("need at least two processes to partition")
    pids = list(range(n))
    rng.shuffle(pids)
    majority = n // 2 + 1
    max_group = max(1, majority - 1)
    groups: List[List[int]] = []
    index = 0
    while index < len(pids):
        size = rng.randint(1, max_group)
        groups.append(pids[index : index + size])
        index += size
    spec = PartitionSpec.of(groups)
    if not spec.blocks_majority(n):
        # The final short group can never push another group over the limit,
        # but guard against future edits breaking the invariant.
        raise ConfigurationError("internal error: generated partition allows a majority")
    return spec
