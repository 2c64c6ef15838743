"""The synchrony model: when is a message delivered?

:class:`EventualSynchrony` is the model of the paper — an unknown global
stabilization time ``TS`` before which the adversary rules and after which
every message to a live process arrives within ``δ``.  Setting ``ts=0``
yields a synchronous system from the start (used for the stable-case
experiment E7).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.net.adversary import Adversary
from repro.net.message import Envelope, Era
from repro.sim.rng import SeededRng

__all__ = ["EventualSynchrony", "POST_MIN_DELAY_FRACTION", "validate_delivery_time"]

# Enum member lookups cost a descriptor call; the per-send fate check uses this.
_PRE = Era.PRE

# Post-stabilization delays are at least this fraction of δ (messages are not instant).
POST_MIN_DELAY_FRACTION = 0.1


def validate_delivery_time(envelope: Envelope, when: Optional[float], now: float) -> Optional[float]:
    """Guard against an adversary scheduling a delivery in the past.

    Used by :meth:`EventualSynchrony.fate` (and usable by adversary
    implementations directly): a hand-written adversary that
    mis-computes a delivery time would otherwise surface as an unexplained
    scheduling error deep inside the event queue.  The error names the offending envelope so
    the buggy adversary is diagnosable from the message alone.

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

    def __repr__(self) -> str:
        return (
            f"EventualSynchrony(ts={self.ts}, delta={self.delta}, "
            f"adversary={type(self.adversary).__name__})"
        )

    def era(self, send_time: float) -> Era:
        """Which era a message sent at ``send_time`` belongs to."""
        return Era.POST if send_time >= self.ts else Era.PRE

    def fate(self, envelope: Envelope, now: float, rng: SeededRng) -> Optional[float]:
        """Absolute delivery time for the envelope, or ``None`` if it is lost.

        Post-stabilization delays lie in ``[POST_MIN_DELAY_FRACTION * δ, δ]``.
        """
        if envelope.era is _PRE:
            when = self.adversary.pre_ts_fate(envelope, now, rng)
            if when is not None and when < now:
                validate_delivery_time(envelope, when, now)  # raises, naming the envelope
            return when
        suggested = self.adversary.post_ts_delay(envelope, now, rng)
        if suggested is None:
            delay = rng.delay(POST_MIN_DELAY_FRACTION * self.delta, self.delta)
        else:
            # Clamp: after stabilization nothing can exceed delta or be negative.
            delay = min(max(suggested, 0.0), self.delta)
        return now + delay
