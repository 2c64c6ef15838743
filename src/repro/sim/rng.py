"""Seeded randomness for reproducible simulations.

All randomness in a simulation flows from a single root seed.  Sub-streams
(network delays, clock rates, adversary choices, per-process randomness) are
derived deterministically from the root seed and a string label, so adding a
new consumer of randomness does not perturb existing streams.  This is what
makes a (scenario, seed) pair replay bit-for-bit identically.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence, TypeVar

__all__ = ["SeededRng", "derive_seed"]

T = TypeVar("T")


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream ``label``.

    Uses SHA-256 so that labels which share a prefix still give independent
    streams, unlike naive ``root_seed + hash(label)`` schemes.
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


class SeededRng:
    """A labelled, forkable wrapper around :class:`random.Random`.

    Args:
        seed: Root seed for this stream.
        label: Name of the stream (used when forking children).
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = int(seed)
        self.label = label
        self._random = random.Random(self.seed)
        # The draw the hot paths call, bound once so each call is a bare C
        # call: ``random()`` returns the next float in ``[0, 1)``.
        self.random = self._random.random

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, label={self.label!r})"

    # ``copy`` treats a bound C method as atomic, so a copy (or an
    # unpickled one) binds ``random`` again to its own ``random.Random``.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["random"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.random = self._random.random

    def fork(self, label: str) -> "SeededRng":
        """Create an independent child stream named ``label``."""
        child_label = f"{self.label}/{label}"
        return SeededRng(derive_seed(self.seed, child_label), label=child_label)

    # -- thin delegations -------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def shuffle(self, items: list[T]) -> None:
        self._random.shuffle(items)

    # -- domain helpers ---------------------------------------------------
    def clock_rate(self, rho: float) -> float:
        """Sample a clock rate uniformly from ``[1 - rho, 1 + rho]``."""
        if rho < 0:
            raise ValueError("rho must be non-negative")
        if rho == 0:
            return 1.0
        return self._random.uniform(1.0 - rho, 1.0 + rho)

    def delay(self, low: float, high: float) -> float:
        """Sample a message delay uniformly from ``[low, high]``."""
        if low < 0 or high < low:
            raise ValueError(f"invalid delay bounds [{low}, {high}]")
        # ``random.uniform``'s own formula, minus its call frame: bit-identical draws.
        return low + (high - low) * self._random.random()

    def coin(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        return self._random.random() < probability

    def pick_subset(self, items: Sequence[T], size: Optional[int] = None) -> list[T]:
        """Pick a deterministic random subset (of the given or random size)."""
        if size is None:
            size = self._random.randint(0, len(items))
        size = max(0, min(size, len(items)))
        return self._random.sample(list(items), size)
