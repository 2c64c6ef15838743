"""Message accounting.

The network reports each send call once (how many messages of which kind,
era and time, how many it lost and how many duplicate copies it made), and
each injection.  Deliveries are counted by the destination node itself
(:meth:`repro.sim.lifecycle.Node.deliver` bumps ``delivered`` or
``to_crashed`` in this monitor's :class:`MessageStats`), so no monitor call
runs per delivery.  The monitor keeps the counts the experiments need:
totals by fate and era, per-kind breakdowns, and the post-``TS`` send rate
the ε-tradeoff experiment (E6) reports as messages per second during the
stable period.  Its state is a fixed set of counters plus one entry per
injected envelope, whatever the length of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.message import Envelope, Era

__all__ = ["NetworkMonitor", "MessageStats"]

# Enum member lookups cost a descriptor call; the send hook uses this.
_PRE = Era.PRE


@dataclass
class MessageStats:
    """Aggregate message counters for one simulation run.

    ``delivered`` and ``to_crashed`` are kept by the nodes, the rest by the
    monitor; ``by_kind`` maps a message kind to the messages sent of it.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    to_crashed: int = 0
    sent_pre_ts: int = 0
    sent_post_ts: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)


class NetworkMonitor:
    """Counts what the network reports and answers count and send-rate queries."""

    def __init__(self) -> None:
        self.stats = MessageStats()
        # Network sends happen in time order, so the latest post-TS send time
        # and the number of sends made at it are all the half-open rate
        # window needs to exclude the sends at its end.
        self._last_post_ts_send = -1.0
        self._sends_at_last = 0
        # Injected envelopes are PRE whatever their send time, which may lie
        # anywhere; scenarios inject a handful, so their times are kept.
        self._injected_send_times: List[float] = []

    # -- recording hooks (called by Network) --------------------------------
    def on_send(
        self, kind: str, era: Era, now: float, count: int, dropped: int, duplicated: int
    ) -> None:
        """Count one ``Network.send`` call: ``count`` sends of ``kind`` at ``now``.

        ``dropped`` is how many messages the call lost, duplicate copies
        included; ``duplicated`` is how many copies it made.
        """
        stats = self.stats
        stats.sent += count
        if dropped:
            stats.dropped += dropped
        if duplicated:
            stats.duplicated += duplicated
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + count
        if era is _PRE:
            stats.sent_pre_ts += count
            return
        stats.sent_post_ts += count
        if now == self._last_post_ts_send:
            self._sends_at_last += count
        else:
            self._last_post_ts_send = now
            self._sends_at_last = count

    def on_inject(self, envelope: Envelope) -> None:
        self.on_send(envelope.message.kind, envelope.era, envelope.send_time, 1, 0, 0)
        self._injected_send_times.append(envelope.send_time)

    # -- queries ------------------------------------------------------------
    def post_ts_send_rate(self, ts: float, end: float) -> Optional[float]:
        """Messages per second sent in the half-open window ``[ts, end)``.

        ``ts`` must be the synchrony model's stabilization time, since
        network sends are counted by era; injected envelopes count by send
        time.  ``None`` when the window is empty (``end <= ts``).
        """
        if end <= ts:
            return None
        count = self.stats.sent_post_ts
        if self._last_post_ts_send == end:
            count -= self._sends_at_last
        count += sum(1 for time in self._injected_send_times if ts <= time < end)
        return count / (end - ts)
