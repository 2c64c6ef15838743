"""The adversary kinds: one class each, built straight from its spec node.

Every class here is an :class:`~repro.net.adversary.Adversary` constructed
as ``Kind(config, rng, params, inner)`` from a checked
:class:`~repro.env.spec.AdversarySpec` node: the run configuration (for
``n``, ``ts`` and ``δ``), the network RNG stream, the node's params in spec
units, and the already-built ``inner`` adversary (``None`` unless the kind
wraps one).  The constructor is the only place that holds each parameter's
default and its conversion from ``δ`` units, and it runs the range checks.
The class attributes declare the rest of the kind: ``summary`` (its
``list-environments`` line), ``parameters`` (name -> JSON type, checked by
:func:`repro.env.registry.checked_adversary` before the constructor runs)
and ``takes_inner``.

Parameters named ``*_delta`` are multiples of ``δ``; probabilities are
plain floats in ``[0, 1]``.

Each kind answers a whole send in one call of its batch hooks
(:meth:`~repro.net.adversary.Adversary.pre_ts_fates`, and
``post_ts_delays`` where it shapes post-``TS`` delays), drawing destination
by destination in ``dsts`` order.  A delay bound is checked and turned into
``(low, span)`` when the kind is built, and a delay is drawn inline as
``low + span * rng.random()``, the float :meth:`SeededRng.delay
<repro.sim.rng.SeededRng.delay>` returns for ``[low, low + span]``; a
probability is a ``rng.random() < p`` coin, like :meth:`SeededRng.coin
<repro.sim.rng.SeededRng.coin>`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Sequence, Tuple

from repro.env.spec import PartitionDecl
from repro.errors import ConfigurationError
from repro.net.adversary import Adversary
from repro.net.partition import PartitionSpec
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import SimulationConfig

__all__ = [
    "AsymmetricLinkAdversary",
    "BenignAdversary",
    "DeferringPartitionAdversary",
    "DropAllAdversary",
    "GrayPartitionAdversary",
    "PartitionAdversary",
    "RandomChaosAdversary",
    "WorstCaseDelayAdversary",
]

Params = Mapping[str, Any]
Fates = List[Optional[float]]

# The least pre-TS delay of the partition-shaped and chaos kinds, as a multiple of δ.
DELAY_FLOOR_DELTA = 0.05


def _check_probabilities(**probabilities: float) -> None:
    for name, prob in probabilities.items():
        if not 0.0 <= prob <= 1.0:
            raise ConfigurationError(f"{name} must be a probability, got {prob}")


def _delay_span(name: str, high: float, delta: float) -> Tuple[float, float]:
    """``(low, span)`` of delays drawn from ``[0.05δ, high]``, where param ``name`` sets ``high``."""
    low = DELAY_FLOOR_DELTA * delta
    if high < low:
        raise ConfigurationError(
            f"{name} must be at least {DELAY_FLOOR_DELTA} (the least delay, in δ), "
            f"got {high / delta:g}"
        )
    return low, high - low


def _partition(config: "SimulationConfig", rng: SeededRng, params: Params) -> PartitionSpec:
    """The grouping a partition-shaped kind enforces (a minority split by default)."""
    return PartitionDecl.from_dict(params.get("partition", {})).materialize(
        config.n, rng
    )


class BenignAdversary(Adversary):
    """Delivers even pre-``TS`` messages promptly (an always-synchronous network).

    Params: ``min_delay_fraction``, the lower bound of every delay as a
    fraction of ``δ`` (the upper bound is ``δ``).
    """

    summary = "prompt delivery on every link, even before TS"
    parameters = {"min_delay_fraction": "number"}
    takes_inner = False

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        self.delta = delta = config.params.delta
        min_delay_fraction = params.get("min_delay_fraction", 0.1)
        if not 0.0 <= min_delay_fraction <= 1.0:
            raise ConfigurationError("min_delay_fraction must be in [0, 1]")
        self._low = min_delay_fraction * delta
        self._span = delta - self._low

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        random = rng.random
        low, span = self._low, self._span
        fates: Fates = []
        for _ in dsts:
            fates.append(now + (low + span * random()))
        return fates


class DropAllAdversary(Adversary):
    """Loses every message sent before stabilization.

    This is the simplest adversary under which no protocol can make any
    progress before ``TS``, and is the cleanest setting for measuring the
    "decision time after stabilization" claims.
    """

    summary = "every pre-TS message is lost"
    parameters: Mapping[str, str] = {}
    takes_inner = False

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        pass

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        return [None] * len(dsts)


class RandomChaosAdversary(Adversary):
    """Random loss, random delays, and occasional deferral past ``TS``.

    Params:
        drop_probability: Chance a pre-``TS`` message is lost outright.
        defer_probability: Chance a surviving message is held until after
            ``TS`` (becoming an "obsolete" message in the paper's sense).
        max_defer_delta: Longest time past ``TS`` a deferred message may arrive.
        max_delay_factor: Surviving, non-deferred messages are delayed by up
            to ``max_delay_factor * δ``.
        duplicate_prob: Chance that a delivered message is also duplicated.
    """

    summary = "independent random loss/delay/deferral/duplication per message"
    parameters = {"drop_probability": "number", "defer_probability": "number",
                  "max_defer_delta": "number", "max_delay_factor": "number",
                  "duplicate_prob": "number"}
    takes_inner = False

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        self.ts = config.ts
        delta = config.params.delta
        self.drop_probability = params.get("drop_probability", 0.5)
        self.defer_probability = params.get("defer_probability", 0.1)
        self.max_defer = params.get("max_defer_delta", 10.0) * delta
        max_delay_factor = params.get("max_delay_factor", 5.0)
        self.duplicate_prob = params.get("duplicate_prob", 0.05)
        _check_probabilities(drop_probability=self.drop_probability,
                             defer_probability=self.defer_probability,
                             duplicate_prob=self.duplicate_prob)
        if self.max_defer < 0 or max_delay_factor <= 0:
            raise ConfigurationError("invalid RandomChaosAdversary parameters")
        self._delay = _delay_span("max_delay_factor", max_delay_factor * delta, delta)

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        random = rng.random
        drop, defer = self.drop_probability, self.defer_probability
        ts, max_defer = self.ts, self.max_defer
        low, span = self._delay
        fates: Fates = []
        for _ in dsts:
            if random() < drop:
                fates.append(None)
            elif random() < defer:
                fates.append(ts + max_defer * random())
            else:
                fates.append(now + (low + span * random()))
        return fates


class PartitionAdversary(Adversary):
    """Enforces a partition before stabilization.

    Messages crossing group boundaries are dropped (optionally with a small
    leak probability); intra-group messages are delayed within
    ``[0.05δ, intra_delay_max]``.  With a minority split (the default
    ``partition``) this guarantees no decision can be reached before ``TS``
    while still letting processes make local progress (e.g. advance sessions
    within their group up to the protocol's majority gate).

    Params:
        partition: A :class:`~repro.env.spec.PartitionDecl` dict.
        intra_delay_max_delta: Upper delay bound for intra-group messages.
        leak_probability: Chance a cross-group message survives.
        leak_max_delay_delta: Upper delay bound for a leaked message.
        leak_past_ts: Stretch that bound to ``TS + 2δ`` instead, so leaks
            may arrive after stabilization.
    """

    summary = "hard partition: cross-group messages dropped (optionally leaking)"
    parameters = {"partition": "PartitionDecl", "intra_delay_max_delta": "number",
                  "leak_probability": "number", "leak_max_delay_delta": "number",
                  "leak_past_ts": "boolean"}
    takes_inner = False

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        self.spec = _partition(config, rng, params)
        delta = config.params.delta
        self.leak_probability = params.get("leak_probability", 0.0)
        if not 0.0 <= self.leak_probability <= 1.0:
            raise ConfigurationError("leak_probability must be a probability")
        if params.get("leak_past_ts"):
            self.leak_max_delay = config.ts + 2.0 * delta
        else:
            self.leak_max_delay = params.get("leak_max_delay_delta", 2.0) * delta
        self._intra = _delay_span(
            "intra_delay_max_delta", params.get("intra_delay_max_delta", 1.0) * delta, delta
        )
        self._leak = _delay_span("leak_max_delay_delta", self.leak_max_delay, delta)

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        reachable = self.spec.reachable(src)
        random = rng.random
        low, span = self._intra
        leak = self.leak_probability
        leak_low, leak_span = self._leak
        fates: Fates = []
        for dst in dsts:
            if dst in reachable:
                fates.append(now + (low + span * random()))
            elif leak and random() < leak:
                fates.append(now + (leak_low + leak_span * random()))
            else:
                fates.append(None)
        return fates


class GrayPartitionAdversary(Adversary):
    """A partial ("gray") partition that heals gradually before ``TS``.

    Before ``heal_start * ts`` the partition is total: every cross-group
    message is dropped.  From there the cross-group drop probability decays
    linearly from ``start_drop`` to ``end_drop``, reaching ``end_drop`` at
    ``TS`` — the network degrades from a hard partition to an increasingly
    leaky one, the way real partitions heal link by link rather than all at
    once.  Cross-group messages that survive take long delays (up to
    ``leak_max_delay``); intra-group traffic behaves like a benign link.

    Params:
        partition: A :class:`~repro.env.spec.PartitionDecl` dict.
        heal_start: Fraction of ``ts`` at which healing begins.
        start_drop: Cross-group drop probability while the partition is total.
        end_drop: Cross-group drop probability reached at ``TS``.
        intra_delay_max_delta: Upper delay bound for intra-group messages.
        leak_max_delay_delta: Upper delay bound for surviving cross-group messages.
    """

    summary = "partial partition whose cross-group drop rate heals gradually before TS"
    parameters = {"partition": "PartitionDecl", "heal_start": "number", "start_drop": "number",
                  "end_drop": "number", "intra_delay_max_delta": "number",
                  "leak_max_delay_delta": "number"}
    takes_inner = False

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        self.spec = _partition(config, rng, params)
        self.ts = config.ts
        delta = config.params.delta
        self.heal_start = params.get("heal_start", 0.4)
        self.start_drop = params.get("start_drop", 1.0)
        self.end_drop = params.get("end_drop", 0.0)
        if not 0.0 <= self.heal_start < 1.0:
            raise ConfigurationError("heal_start must be in [0, 1)")
        _check_probabilities(start_drop=self.start_drop, end_drop=self.end_drop)
        if self.end_drop > self.start_drop:
            raise ConfigurationError("a gray partition heals: end_drop must not exceed start_drop")
        self._intra = _delay_span(
            "intra_delay_max_delta", params.get("intra_delay_max_delta", 1.0) * delta, delta
        )
        self._leak = _delay_span(
            "leak_max_delay_delta", params.get("leak_max_delay_delta", 2.0) * delta, delta
        )

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

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        reachable = self.spec.reachable(src)
        random = rng.random
        low, span = self._intra
        drop = self.drop_probability_at(now)
        leak_low, leak_span = self._leak
        fates: Fates = []
        for dst in dsts:
            if dst in reachable:
                fates.append(now + (low + span * random()))
            elif random() < drop:
                fates.append(None)
            else:
                fates.append(now + (leak_low + leak_span * random()))
        return fates


def _check_pid(what: str, pid: int, n: int) -> None:
    if not 0 <= pid < n:
        raise ConfigurationError(f"{what} must be a pid in [0, {n}), got {pid}")


class AsymmetricLinkAdversary(Adversary):
    """Per-link asymmetry: designated slow links crawl, every other link is prompt.

    The paper's model constrains only the *worst* link after stabilization;
    before ``TS`` nothing stops one direction of one link from being orders
    of magnitude slower than the rest.  This adversary models exactly that:
    links to and/or from a *hub* process (typically the post-``TS``
    coordinator of a leader-based protocol) — or an explicit ``(src, dst)``
    link list — are stretched to ``[δ, slow_factor * δ]`` before
    stabilization, while all other links behave benignly.  After ``TS`` the
    slow links take (almost) the full ``δ`` while fast links keep the
    default uniform delays, so the asymmetry persists without ever violating
    the bound.

    Params:
        hub: Process id whose links are slow (per ``direction``).
        direction: ``"to"``, ``"from"``, or ``"both"`` — which hub-adjacent
            link directions are slow.  Ignored when ``links`` is given.
        links: Explicit slow links as ``[src, dst]`` pairs (overrides hub).
        slow_factor: Pre-``TS`` delays on slow links go up to ``slow_factor * δ``.
        fast_min_fraction: Lower delay bound on fast links, as a fraction of ``δ``.
        slow_post_ts: Whether slow links also take the full ``δ`` after
            stabilization (clamped by the network either way).
    """

    summary = "designated slow links (to/from a hub) crawl; all other links are prompt"
    parameters = {"hub": "integer or null", "direction": "string",
                  "links": "array of pid pairs or null", "slow_factor": "number",
                  "fast_min_fraction": "number", "slow_post_ts": "boolean"}
    takes_inner = False

    _DIRECTIONS = ("to", "from", "both")

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        hub, links = params.get("hub"), params.get("links")
        if hub is not None:
            _check_pid("hub", hub, config.n)
        for link in links or ():
            for pid in link:
                _check_pid("link endpoint", pid, config.n)
        self.delta = config.params.delta
        self.hub = hub
        self.direction = params.get("direction", "both")
        self.links = frozenset((src, dst) for src, dst in links) if links else None
        self.slow_factor = params.get("slow_factor", 4.0)
        self.fast_min_fraction = params.get("fast_min_fraction", 0.1)
        self.slow_post_ts = params.get("slow_post_ts", True)
        if self.slow_factor < 1.0:
            raise ConfigurationError(f"slow_factor must be >= 1, got {self.slow_factor}")
        if not 0.0 <= self.fast_min_fraction <= 1.0:
            raise ConfigurationError("fast_min_fraction must be in [0, 1]")
        if self.direction not in self._DIRECTIONS:
            raise ConfigurationError(
                f"direction must be one of {self._DIRECTIONS}, got {self.direction!r}"
            )
        if hub is None and links is None:
            raise ConfigurationError("AsymmetricLinkAdversary needs a hub or explicit links")

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

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        delta = self.delta
        slow_high, fast_low = self.slow_factor * delta, self.fast_min_fraction * delta
        return [
            now + rng.delay(delta, slow_high) if self.is_slow(src, dst)
            else now + rng.delay(fast_low, delta)
            for dst in dsts
        ]

    def post_ts_delays(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        slow_post_ts, delta = self.slow_post_ts, self.delta
        return [delta if slow_post_ts and self.is_slow(src, dst) else None for dst in dsts]


class WorstCaseDelayAdversary(Adversary):
    """Stretches every post-stabilization delivery to (almost) exactly ``δ``.

    The eventual-synchrony model only promises delivery *within* ``δ``; an
    adversary is free to make every message take the full bound.  Using this
    wrapper pushes measured decision lags toward the analytic worst case
    instead of the optimistic values produced by uniformly random delays.
    Pre-``TS`` behaviour is delegated to the inner adversary (everything is
    lost when there is none).

    Params: ``jitter``, a small fraction of ``δ`` subtracted at random so
    that ties do not all land on the same instant (0 disables it).
    """

    summary = "post-TS deliveries stretched to (almost) the full delta; wraps a pre-TS adversary"
    parameters = {"jitter": "number"}
    takes_inner = True

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        self.delta = config.params.delta
        self.pre_ts = inner if inner is not None else DropAllAdversary(config, rng, {})
        self.jitter = params.get("jitter", 0.01)
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        self.duplicate_prob = self.pre_ts.duplicate_prob

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        return self.pre_ts.pre_ts_fates(src, dsts, now, rng)

    def post_ts_delays(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        delta, jitter = self.delta, self.jitter
        if jitter == 0.0:
            return [delta] * len(dsts)
        return [delta * (1.0 - rng.uniform(0.0, jitter)) for _ in dsts]


class DeferringPartitionAdversary(Adversary):
    """Partition adversary whose cross-partition leaks arrive *after* ``TS``.

    This manufactures the "obsolete message" hazard organically: messages a
    protocol legitimately sent before stabilization resurface afterwards, at
    adversary-chosen times, exactly as Sections 2–4 of the paper allow.
    Intra-group traffic is delegated to the inner partition-shaped adversary
    — any adversary exposing a ``spec`` :class:`PartitionSpec` works, so
    hard (:class:`PartitionAdversary`) and gray
    (:class:`GrayPartitionAdversary`) partitions compose equally.

    Params:
        defer_probability: Chance a cross-group message is deferred past
            ``TS`` rather than lost.
        max_defer_delta: Longest time past ``TS`` a deferred message may arrive.
        duplicate_prob: Chance that a delivered message is also duplicated.
    """

    summary = ("partition whose cross-group leaks surface only after TS; wraps any "
               "partition-shaped adversary")
    parameters = {"defer_probability": "number", "max_defer_delta": "number",
                  "duplicate_prob": "number"}
    takes_inner = True

    def __init__(self, config: "SimulationConfig", rng: SeededRng, params: Params,
                 inner: Optional[Adversary] = None) -> None:
        self.ts = config.ts
        delta = config.params.delta
        self.defer_probability = params.get("defer_probability", 0.25)
        self.max_defer = params.get("max_defer_delta", 3.0) * delta
        self.duplicate_prob = params.get("duplicate_prob", 0.1)
        if not 0.0 <= self.defer_probability <= 1.0 or not 0.0 <= self.duplicate_prob <= 1.0:
            raise ConfigurationError("defer_probability and duplicate_prob must be probabilities")
        if self.max_defer < 0:
            raise ConfigurationError("invalid DeferringPartitionAdversary parameters")
        if not isinstance(getattr(inner, "spec", None), PartitionSpec):
            raise ConfigurationError(
                "DeferringPartitionAdversary wraps a partition-shaped adversary "
                "(one exposing a PartitionSpec via .spec); got "
                f"{type(inner).__name__ if inner is not None else None}"
            )
        self.inner = inner

    def pre_ts_fates(self, src: int, dsts: Sequence[int], now: float, rng: SeededRng) -> Fates:
        # The inner kind answers each intra-group destination in turn, so
        # its draws interleave with the deferral coins exactly as in dsts.
        reachable = self.inner.spec.reachable(src)
        inner_fates = self.inner.pre_ts_fates
        random = rng.random
        defer, ts, max_defer = self.defer_probability, self.ts, self.max_defer
        fates: Fates = []
        for dst in dsts:
            if dst in reachable:
                fates.extend(inner_fates(src, (dst,), now, rng))
            elif random() < defer:
                fates.append(ts + max_defer * random())
            else:
                fates.append(None)
        return fates
