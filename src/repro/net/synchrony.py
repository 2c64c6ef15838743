"""The synchrony model: when is a message delivered?

:class:`EventualSynchrony` is the model of the paper — an unknown global
stabilization time ``TS`` before which the adversary rules and after which
every message to a live process arrives within ``δ``.  Setting ``ts=0``
yields a synchronous system from the start (used for the stable-case
experiment E7).

:meth:`EventualSynchrony.fates` is the network's one call per send: it
answers for every destination of the send, duplicate copies included.  The
era's batch hook gives the fates (the adversary's
:meth:`~repro.net.adversary.Adversary.pre_ts_fates` before ``TS``,
:meth:`EventualSynchrony.post_ts_fates` from ``TS`` on), and when the
adversary duplicates messages each destination is served in turn: its fate,
then the duplicate coin, then the copy's fate, so the draws are those of one
destination at a time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.adversary import Adversary
from repro.net.message import Envelope
from repro.sim.rng import SeededRng

__all__ = ["EventualSynchrony", "POST_MIN_DELAY_FRACTION", "validate_delivery_time"]

# Post-stabilization delays are at least this fraction of δ (messages are not instant).
POST_MIN_DELAY_FRACTION = 0.1


def validate_delivery_time(envelope: Envelope, when: Optional[float], now: float) -> Optional[float]:
    """Guard against an adversary scheduling a delivery in the past.

    Used by :meth:`repro.net.network.Network.send` on a fate before ``now``:
    a hand-written adversary that mis-computes a delivery time would
    otherwise surface as an unexplained ordering error deep inside the
    event queue.  The error names the offending envelope so the buggy
    adversary is diagnosable from the message alone.

    Returns ``when`` unchanged when it is valid (or ``None`` for a drop).
    """
    if when is not None and when < now:
        raise ConfigurationError(
            f"adversary scheduled delivery in the past ({when:g} < now {now:g}) "
            f"for msg #{envelope.msg_id} ({envelope.kind}) "
            f"p{envelope.src}->p{envelope.dst} sent at {envelope.send_time:g}"
        )
    return when


class EventualSynchrony:
    """The paper's eventually-synchronous model.

    Args:
        ts: Global stabilization time (unknown to the processes).
        delta: Post-stabilization bound on delivery + processing time.
        adversary: Controls pre-``TS`` messages (and may shape post-``TS`` delays).
    """

    def __init__(self, ts: float, delta: float, adversary: Adversary) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        if ts < 0:
            raise ConfigurationError(f"ts must be non-negative, got {ts}")
        self.ts = ts
        self.delta = delta
        self.adversary = adversary
        self.duplicate_prob = adversary.duplicate_prob
        self._post_ts_delays = adversary.post_ts_delays
        # The post-TS default delay is drawn from [_post_low, _post_low + _post_span].
        self._post_low = POST_MIN_DELAY_FRACTION * delta
        self._post_span = delta - self._post_low

    def __repr__(self) -> str:
        return (
            f"EventualSynchrony(ts={self.ts}, delta={self.delta}, "
            f"adversary={type(self.adversary).__name__})"
        )

    def fates(
        self, src: int, dsts: Sequence[int], now: float, rng: SeededRng
    ) -> Tuple[Sequence[int], List[Optional[float]]]:
        """The fates of one send from ``src`` to each of ``dsts`` at ``now``.

        Returns ``(targets, times)``: one slot per message the send makes,
        in message-id order, ``targets`` naming each slot's destination and
        ``times`` its absolute delivery time or ``None`` if it is lost.
        Without duplicates ``targets`` is ``dsts`` itself; otherwise a copy
        takes the slot right after its original, with the same destination.
        Pre-``TS`` times come from the adversary unchecked (the network
        rejects one before ``now``).
        """
        duplicate_prob = self.duplicate_prob
        if not duplicate_prob:
            if now < self.ts:
                return dsts, self.adversary.pre_ts_fates(src, dsts, now, rng)
            return dsts, self.post_ts_fates(src, dsts, now, rng)
        hook = self.adversary.pre_ts_fates if now < self.ts else self.post_ts_fates
        random = rng.random
        targets: List[int] = []
        times: List[Optional[float]] = []
        for dst in dsts:
            one = (dst,)
            (when,) = hook(src, one, now, rng)
            targets.append(dst)
            times.append(when)
            if when is not None and random() < duplicate_prob:
                targets.append(dst)
                times.extend(hook(src, one, now, rng))
        return targets, times

    def post_ts_fates(
        self, src: int, dsts: Sequence[int], now: float, rng: SeededRng
    ) -> List[float]:
        """Delivery times of a post-``TS`` send: the bound holds whatever the adversary says.

        An adversary's delay is clamped into ``[0, δ]``; a destination it
        leaves to the model is drawn from ``[POST_MIN_DELAY_FRACTION * δ, δ]``.
        """
        shape = self._post_ts_delays
        random = rng.random
        low, span = self._post_low, self._post_span
        times = []
        if shape is None:
            # A loop, not a comprehension: most sends have one destination,
            # and a comprehension's own call costs more than the draw.
            for _ in dsts:
                times.append(now + (low + span * random()))
            return times
        delta = self.delta
        for delay in shape(src, dsts, now, rng):
            if delay is None:
                times.append(now + (low + span * random()))
            else:
                times.append(now + min(max(delay, 0.0), delta))
        return times
