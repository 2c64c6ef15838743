"""The adversary interface the synchrony model consults.

The paper makes *no* assumption about messages sent before the stabilization
time ``TS``: they may be lost or delivered arbitrarily late (even after
``TS``).  Everything that happens to such messages is therefore a choice of
an adversary.  An :class:`Adversary` is asked, for every message sent before
``TS``, what its fate is: either ``None`` (lost) or an absolute real delivery
time (which may exceed ``TS`` — this is what creates the obsolete-message
hazard analysed in Sections 2 and 3 of the paper).

Adversaries may also shape the delay of post-``TS`` messages, but the
synchrony model clamps those delays to ``[0, δ]``: nothing the adversary
does can violate the post-stabilization bound.

The hooks are batched: one call per send, for all of its destinations.
:meth:`Adversary.pre_ts_fates` and, where a kind declares it,
``post_ts_delays`` take ``(src, dsts, now, rng)`` and answer for each
destination of ``dsts``, in order.  A hook draws from ``rng`` destination
by destination, in ``dsts`` order, exactly as it would for one destination
at a time, so a run's draws do not depend on how its sends are grouped.

This module holds only the interface that
:class:`~repro.net.synchrony.EventualSynchrony` calls.  The adversary kinds
themselves are declared in :mod:`repro.env.adversaries`, each built from its
spec: the environment layer imports the network layer, never the reverse.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence

from repro.sim.rng import SeededRng

__all__ = ["Adversary"]


class Adversary(abc.ABC):
    """Decides the fate of pre-stabilization messages.

    Attributes:
        duplicate_prob: Probability that the network also delivers a
            duplicate copy of a delivered message (read once per synchrony
            model).
        post_ts_delays: ``None`` (the default) leaves every post-``TS``
            delay to the model.  A kind that shapes them defines
            ``post_ts_delays(src, dsts, now, rng)``, returning per
            destination a delay, or ``None`` to let the model choose.  The
            model draws the delays left to it after this call, so a hook
            that draws must not leave a destination to the model (none
            does).  The model clamps every returned delay into ``[0, δ]``.
    """

    duplicate_prob: float = 0.0
    post_ts_delays: Optional[
        Callable[[int, Sequence[int], float, SeededRng], List[Optional[float]]]
    ] = None

    @abc.abstractmethod
    def pre_ts_fates(
        self, src: int, dsts: Sequence[int], now: float, rng: SeededRng
    ) -> List[Optional[float]]:
        """Per destination, the absolute delivery time of a pre-``TS`` send, or ``None`` to drop it."""
