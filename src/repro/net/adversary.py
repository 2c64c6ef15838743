"""The adversary interface the synchrony model consults before ``TS``.

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

This module holds only the interface that
:class:`~repro.net.synchrony.EventualSynchrony` calls.  The adversary kinds
themselves are declared in :mod:`repro.env.adversaries`, each built from its
spec: the environment layer imports the network layer, never the reverse.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.net.message import Envelope
from repro.sim.rng import SeededRng

__all__ = ["Adversary"]


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
