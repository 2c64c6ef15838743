"""Adversaries controlling the pre-stabilization era.

The paper makes *no* assumption about messages sent before the stabilization
time ``TS``: they may be lost or delivered arbitrarily late (even after
``TS``).  Everything that happens to such messages is therefore a choice of
an adversary.  An :class:`Adversary` is asked, for every message sent before
``TS``, what its fate is: either ``None`` (lost) or an absolute real delivery
time (which may exceed ``TS`` — this is what creates the obsolete-message
hazard analysed in Sections 2 and 3 of the paper).

Adversaries may also shape the delay of post-``TS`` messages, but the network
clamps those delays to ``δ``: nothing the adversary does can violate the
post-stabilization bound.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.net.partition import PartitionSpec
from repro.sim.rng import SeededRng

__all__ = [
    "Adversary",
    "AsymmetricLinkAdversary",
    "BenignAdversary",
    "DeferringPartitionAdversary",
    "DropAllAdversary",
    "GrayPartitionAdversary",
    "RandomChaosAdversary",
    "PartitionAdversary",
    "ScriptedAdversary",
    "WorstCaseDelayAdversary",
]


class Adversary(abc.ABC):
    """Decides the fate of pre-stabilization messages.

    Attributes:
        duplicate_prob: Probability that the network also delivers a
            duplicate copy of a delivered message (read once per network).
    """

    duplicate_prob: float = 0.0

    @abc.abstractmethod
    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        """Absolute delivery time for a pre-``TS`` message, or ``None`` to drop it."""

    def post_ts_delay(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        """Delay for a post-``TS`` message, or ``None`` to let the network choose.

        The network clamps the returned delay into ``(0, δ]``; adversaries
        cannot break the synchrony bound after stabilization.
        """
        return None


class BenignAdversary(Adversary):
    """Delivers even pre-``TS`` messages promptly (an always-synchronous network).

    Args:
        delta: Delivery bound to honour before stabilization as well.
        min_delay_fraction: Lower bound of the delay, as a fraction of delta.
    """

    def __init__(self, delta: float, min_delay_fraction: float = 0.1) -> None:
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        if not 0.0 <= min_delay_fraction <= 1.0:
            raise ConfigurationError("min_delay_fraction must be in [0, 1]")
        self.delta = delta
        self.min_delay_fraction = min_delay_fraction

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        delay = rng.delay(self.min_delay_fraction * self.delta, self.delta)
        return now + delay


class DropAllAdversary(Adversary):
    """Loses every message sent before stabilization.

    This is the simplest adversary under which no protocol can make any
    progress before ``TS``, and is the cleanest setting for measuring the
    "decision time after stabilization" claims.
    """

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        return None


class RandomChaosAdversary(Adversary):
    """Random loss, random delays, and occasional deferral past ``TS``.

    Args:
        ts: Stabilization time (needed to aim deferred deliveries past it).
        delta: Post-stabilization delivery bound (scales the delay ranges).
        drop_probability: Chance a pre-``TS`` message is lost outright.
        defer_probability: Chance a surviving message is held until after
            ``TS`` (becoming an "obsolete" message in the paper's sense).
        max_defer: Longest time past ``TS`` a deferred message may arrive.
        max_delay_factor: Surviving, non-deferred messages are delayed by up
            to ``max_delay_factor * delta``.
        duplicate_prob: Chance that a delivered message is also duplicated.
    """

    def __init__(
        self,
        ts: float,
        delta: float,
        drop_probability: float = 0.5,
        defer_probability: float = 0.1,
        max_defer: float = 10.0,
        max_delay_factor: float = 5.0,
        duplicate_prob: float = 0.05,
    ) -> None:
        for name, prob in (
            ("drop_probability", drop_probability),
            ("defer_probability", defer_probability),
            ("duplicate_prob", duplicate_prob),
        ):
            if not 0.0 <= prob <= 1.0:
                raise ConfigurationError(f"{name} must be a probability, got {prob}")
        if delta <= 0 or ts < 0 or max_defer < 0 or max_delay_factor <= 0:
            raise ConfigurationError("invalid RandomChaosAdversary parameters")
        self.ts = ts
        self.delta = delta
        self.drop_probability = drop_probability
        self.defer_probability = defer_probability
        self.max_defer = max_defer
        self.max_delay_factor = max_delay_factor
        self.duplicate_prob = duplicate_prob

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        if rng.coin(self.drop_probability):
            return None
        if rng.coin(self.defer_probability):
            return self.ts + rng.delay(0.0, self.max_defer)
        delay = rng.delay(0.05 * self.delta, self.max_delay_factor * self.delta)
        return now + delay


class PartitionAdversary(Adversary):
    """Enforces a partition before stabilization.

    Messages crossing group boundaries are dropped (optionally with a small
    leak probability); intra-group messages are delayed within
    ``[0, intra_delay_max]``.  With a :func:`repro.net.partition.minority_groups`
    spec this guarantees no decision can be reached before ``TS`` while still
    letting processes make local progress (e.g. advance sessions within their
    group up to the protocol's majority gate).
    """

    def __init__(
        self,
        spec: PartitionSpec,
        delta: float,
        intra_delay_max: Optional[float] = None,
        leak_probability: float = 0.0,
        leak_max_delay: float = 0.0,
    ) -> None:
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        if not 0.0 <= leak_probability <= 1.0:
            raise ConfigurationError("leak_probability must be a probability")
        self.spec = spec
        self.delta = delta
        self.intra_delay_max = intra_delay_max if intra_delay_max is not None else delta
        self.leak_probability = leak_probability
        self.leak_max_delay = leak_max_delay if leak_max_delay > 0 else 2.0 * delta

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        if self.spec.connected(envelope.src, envelope.dst):
            return now + rng.delay(0.05 * self.delta, self.intra_delay_max)
        if self.leak_probability and rng.coin(self.leak_probability):
            return now + rng.delay(0.05 * self.delta, self.leak_max_delay)
        return None


class GrayPartitionAdversary(Adversary):
    """A partial ("gray") partition that heals gradually before ``TS``.

    Before ``heal_start * ts`` the partition is total: every cross-group
    message is dropped.  From there the cross-group drop probability decays
    linearly from ``start_drop`` to ``end_drop``, reaching ``end_drop`` at
    ``TS`` — the network degrades from a hard partition to an increasingly
    leaky one, the way real partitions heal link by link rather than all at
    once.  Cross-group messages that survive take long delays (up to
    ``leak_max_delay``); intra-group traffic behaves like a benign link.

    Args:
        spec: The partition grouping.
        ts: Stabilization time (the heal deadline).
        delta: Post-stabilization delivery bound (scales the delay ranges).
        heal_start: Fraction of ``ts`` at which healing begins.
        start_drop: Cross-group drop probability while the partition is total.
        end_drop: Cross-group drop probability reached at ``TS``.
        intra_delay_max: Upper delay bound for intra-group messages
            (defaults to ``delta``).
        leak_max_delay: Upper delay bound for surviving cross-group messages
            (defaults to ``2 * delta``).
    """

    def __init__(
        self,
        spec: PartitionSpec,
        ts: float,
        delta: float,
        heal_start: float = 0.4,
        start_drop: float = 1.0,
        end_drop: float = 0.0,
        intra_delay_max: Optional[float] = None,
        leak_max_delay: Optional[float] = None,
    ) -> None:
        if delta <= 0 or ts < 0:
            raise ConfigurationError("GrayPartitionAdversary needs delta > 0 and ts >= 0")
        if not 0.0 <= heal_start < 1.0:
            raise ConfigurationError("heal_start must be in [0, 1)")
        for name, prob in (("start_drop", start_drop), ("end_drop", end_drop)):
            if not 0.0 <= prob <= 1.0:
                raise ConfigurationError(f"{name} must be a probability, got {prob}")
        if end_drop > start_drop:
            raise ConfigurationError("a gray partition heals: end_drop must not exceed start_drop")
        self.spec = spec
        self.ts = ts
        self.delta = delta
        self.heal_start = heal_start
        self.start_drop = start_drop
        self.end_drop = end_drop
        self.intra_delay_max = intra_delay_max if intra_delay_max is not None else delta
        self.leak_max_delay = leak_max_delay if leak_max_delay is not None else 2.0 * delta

    def drop_probability_at(self, now: float) -> float:
        """Cross-group drop probability at real time ``now`` (monotone healing)."""
        if self.ts <= 0:
            return self.end_drop
        heal_begin = self.heal_start * self.ts
        if now <= heal_begin:
            return self.start_drop
        if now >= self.ts:
            return self.end_drop
        progress = (now - heal_begin) / (self.ts - heal_begin)
        return self.start_drop + (self.end_drop - self.start_drop) * progress

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        if self.spec.connected(envelope.src, envelope.dst):
            return now + rng.delay(0.05 * self.delta, self.intra_delay_max)
        if rng.coin(self.drop_probability_at(now)):
            return None
        return now + rng.delay(0.05 * self.delta, self.leak_max_delay)


class AsymmetricLinkAdversary(Adversary):
    """Per-link asymmetry: designated slow links crawl, every other link is prompt.

    The paper's model constrains only the *worst* link after stabilization;
    before ``TS`` nothing stops one direction of one link from being orders
    of magnitude slower than the rest.  This adversary models exactly that:
    links to and/or from a *hub* process (typically the post-``TS``
    coordinator of a leader-based protocol) — or an explicit ``(src, dst)``
    link list — are stretched to ``[delta, slow_factor * delta]`` before
    stabilization, while all other links behave benignly.  After ``TS`` the
    slow links take (almost) the full ``delta`` while fast links keep the
    default uniform delays, so the asymmetry persists without ever violating
    the bound.

    Args:
        delta: Post-stabilization delivery bound.
        hub: Process id whose links are slow (per ``direction``).
        direction: ``"to"``, ``"from"``, or ``"both"`` — which hub-adjacent
            link directions are slow.  Ignored when ``links`` is given.
        links: Explicit slow links as ``(src, dst)`` pairs (overrides hub).
        slow_factor: Pre-``TS`` delays on slow links go up to
            ``slow_factor * delta``.
        fast_min_fraction: Lower delay bound on fast links, as a fraction of
            ``delta`` (mirrors :class:`BenignAdversary`).
        slow_post_ts: Whether slow links also take the full ``delta`` after
            stabilization (clamped by the network either way).
    """

    _DIRECTIONS = ("to", "from", "both")

    def __init__(
        self,
        delta: float,
        hub: Optional[int] = None,
        direction: str = "both",
        links: Optional[Sequence[Tuple[int, int]]] = None,
        slow_factor: float = 4.0,
        fast_min_fraction: float = 0.1,
        slow_post_ts: bool = True,
    ) -> None:
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        if slow_factor < 1.0:
            raise ConfigurationError(f"slow_factor must be >= 1, got {slow_factor}")
        if not 0.0 <= fast_min_fraction <= 1.0:
            raise ConfigurationError("fast_min_fraction must be in [0, 1]")
        if direction not in self._DIRECTIONS:
            raise ConfigurationError(
                f"direction must be one of {self._DIRECTIONS}, got {direction!r}"
            )
        if hub is None and links is None:
            raise ConfigurationError("AsymmetricLinkAdversary needs a hub or explicit links")
        self.delta = delta
        self.hub = hub
        self.direction = direction
        self.links = frozenset((int(src), int(dst)) for src, dst in links) if links else None
        self.slow_factor = slow_factor
        self.fast_min_fraction = fast_min_fraction
        self.slow_post_ts = slow_post_ts

    def is_slow(self, src: int, dst: int) -> bool:
        """Whether the ``src -> dst`` link is one of the slow ones."""
        if src == dst:
            return False
        if self.links is not None:
            return (src, dst) in self.links
        if self.direction == "to":
            return dst == self.hub
        if self.direction == "from":
            return src == self.hub
        return src == self.hub or dst == self.hub

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        if self.is_slow(envelope.src, envelope.dst):
            return now + rng.delay(self.delta, self.slow_factor * self.delta)
        return now + rng.delay(self.fast_min_fraction * self.delta, self.delta)

    def post_ts_delay(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        if self.slow_post_ts and self.is_slow(envelope.src, envelope.dst):
            return self.delta
        return None


class WorstCaseDelayAdversary(Adversary):
    """Stretches every post-stabilization delivery to (almost) exactly ``δ``.

    The eventual-synchrony model only promises delivery *within* ``δ``; an
    adversary is free to make every message take the full bound.  Using this
    wrapper pushes measured decision lags toward the analytic worst case
    instead of the optimistic values produced by uniformly random delays.
    Pre-``TS`` behaviour is delegated to an inner adversary (everything is
    lost by default).

    Args:
        delta: The post-stabilization bound.
        pre_ts: Adversary controlling messages sent before stabilization.
        jitter: Small fraction of ``δ`` subtracted at random so that ties do
            not all land on the same instant (0 disables it).
    """

    def __init__(
        self,
        delta: float,
        pre_ts: Optional[Adversary] = None,
        jitter: float = 0.01,
    ) -> None:
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        self.delta = delta
        self.pre_ts = pre_ts if pre_ts is not None else DropAllAdversary()
        self.jitter = jitter
        self.duplicate_prob = self.pre_ts.duplicate_prob

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        return self.pre_ts.pre_ts_fate(envelope, now, rng)

    def post_ts_delay(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        if self.jitter == 0.0:
            return self.delta
        return self.delta * (1.0 - rng.uniform(0.0, self.jitter))


class DeferringPartitionAdversary(Adversary):
    """Partition adversary whose cross-partition leaks arrive *after* ``TS``.

    This manufactures the "obsolete message" hazard organically: messages a
    protocol legitimately sent before stabilization resurface afterwards, at
    adversary-chosen times, exactly as Sections 2–4 of the paper allow.
    Intra-group traffic is delegated to the inner partition-shaped adversary
    — any adversary exposing a ``spec`` :class:`PartitionSpec` works, so
    hard (:class:`PartitionAdversary`) and gray
    (:class:`GrayPartitionAdversary`) partitions compose equally.
    """

    def __init__(
        self,
        inner: Adversary,
        ts: float,
        delta: float,
        defer_probability: float,
        max_defer: float,
        duplicate_prob: float,
    ) -> None:
        if not 0.0 <= defer_probability <= 1.0 or not 0.0 <= duplicate_prob <= 1.0:
            raise ConfigurationError("defer_probability and duplicate_prob must be probabilities")
        if ts < 0 or delta <= 0 or max_defer < 0:
            raise ConfigurationError("invalid DeferringPartitionAdversary parameters")
        if not isinstance(getattr(inner, "spec", None), PartitionSpec):
            raise ConfigurationError(
                "DeferringPartitionAdversary wraps a partition-shaped adversary "
                "(one exposing a PartitionSpec via .spec); got "
                f"{type(inner).__name__ if inner is not None else None}"
            )
        self.inner = inner
        self.ts = ts
        self.delta = delta
        self.defer_probability = defer_probability
        self.max_defer = max_defer
        self.duplicate_prob = duplicate_prob

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        if not self.inner.spec.connected(envelope.src, envelope.dst):
            if rng.coin(self.defer_probability):
                return self.ts + rng.delay(0.0, self.max_defer)
            return None
        return self.inner.pre_ts_fate(envelope, now, rng)


@dataclass
class ScriptedAdversary(Adversary):
    """Adversary driven by an arbitrary callback (used by tests and scenarios).

    Attributes:
        script: Callable ``(envelope, now, rng) -> Optional[float]`` giving
            the absolute delivery time of a pre-``TS`` message or None.
        fallback: Adversary consulted when ``script`` returns the sentinel
            :data:`ScriptedAdversary.PASS`.
    """

    PASS = object()

    script: Callable[[Envelope, float, SeededRng], object]
    fallback: Adversary = field(default_factory=DropAllAdversary)

    def pre_ts_fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        outcome = self.script(envelope, now, rng)
        if outcome is ScriptedAdversary.PASS:
            return self.fallback.pre_ts_fate(envelope, now, rng)
        if outcome is None:
            return None
        return float(outcome)  # type: ignore[arg-type]
