"""Message and envelope types.

Protocol messages are small frozen dataclasses subclassing :class:`Message`.
The network wraps each delivery it schedules in an :class:`Envelope`
carrying transport metadata (source, destination, send time, delivery
time); a lost message gets no envelope.  Protocols never see envelopes,
only messages and the sender id.

Both layers are declared with ``slots=True``: envelopes are the most
frequently allocated objects in a simulation, and slotted instances are
both smaller and faster to construct.  Message ids are normally assigned by
the owning :class:`~repro.net.network.Network` from its own counter, so two
networks (or two back-to-back runs) produce identical ``msg_id`` streams;
the module-level fallback counter only serves envelopes constructed directly
in tests.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, fields
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


# Fallback ids for envelopes built outside a Network (tests, fixtures).  The
# network never consults this counter — it assigns msg_id explicitly from its
# own per-instance stream.
_envelope_ids = itertools.count()


@dataclass(slots=True)
class Envelope:
    """Transport wrapper around one message instance in flight.

    Attributes:
        message: The protocol message being carried.
        src: Sender process id.
        dst: Destination process id.
        send_time: Real time at which the send happened.
        era: Whether the send happened before or after stabilization.
        msg_id: Unique id for tracing (per-network stream; a module-level
            fallback counter serves directly constructed envelopes).
        deliver_time: Real delivery time once the fate is decided, else None.
    """

    message: Message
    src: int
    dst: int
    send_time: float
    era: Era
    msg_id: int = field(default_factory=lambda: next(_envelope_ids))
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

