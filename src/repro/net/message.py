"""Message and envelope types.

Protocol messages are small frozen dataclasses subclassing :class:`Message`.
An :class:`Envelope` describes one message in flight with its transport
metadata (source, destination, send time, era, id, delivery time).  The
network schedules a delivery without one — the queue entry carries just the
message, its source and its id — and builds envelopes only where a caller
reads them: the one :meth:`~repro.net.network.Network.inject` returns, and
the one an adversary's bad delivery time is reported with.  Protocols never
see envelopes, only messages and the sender id.

Both layers are declared with ``slots=True``, so their instances stay small
and dict-free.  Message ids are assigned by the owning
:class:`~repro.net.network.Network` from its own counter, so two networks
(or two back-to-back runs) produce identical ``msg_id`` streams; an
envelope always names its id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

__all__ = ["Era", "Message", "Envelope"]


class Era(enum.Enum):
    """Which side of the stabilization time a message was sent on."""

    PRE = "pre-stabilization"
    POST = "post-stabilization"


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for protocol messages.

    Subclasses add their own fields and set ``kind`` to a short stable name
    used by traces, monitors, and message-type filters.  Subclasses should
    also declare ``slots=True`` so their instances stay dict-free.
    """

    kind: ClassVar[str] = "message"

    def describe(self) -> str:
        """Compact single-line rendering used in traces."""
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]
        return f"{self.kind}({', '.join(parts)})"


@dataclass(slots=True)
class Envelope:
    """Transport wrapper around one message instance in flight.

    Attributes:
        message: The protocol message being carried.
        src: Sender process id.
        dst: Destination process id.
        send_time: Real time at which the send happened.
        era: Whether the send happened before or after stabilization.
        msg_id: The message's id in its network's stream.
        deliver_time: Real delivery time once the fate is decided, else None.
    """

    message: Message
    src: int
    dst: int
    send_time: float
    era: Era
    msg_id: int
    deliver_time: Optional[float] = None

    @property
    def kind(self) -> str:
        return type(self.message).kind

    def describe(self) -> str:
        if self.deliver_time is None:
            fate = "pending"
        else:
            fate = f"deliver@{self.deliver_time:.3f}"
        return (
            f"#{self.msg_id} {self.src}->{self.dst} {self.message.describe()} "
            f"sent@{self.send_time:.3f} [{self.era.name}] {fate}"
        )

