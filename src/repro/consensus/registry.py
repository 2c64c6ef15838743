"""The protocol catalogue: one literal table of protocol builders.

:data:`PROTOCOLS` maps each protocol name to its builder class and a
one-line summary (what ``repro list-protocols`` prints).  The harness, the
comparison experiment (E8) and the examples construct protocols by name
through :func:`protocol_builder`, so a new protocol is one table entry.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.consensus.base import ProtocolBuilder
from repro.consensus.bconsensus.modified import ModifiedBConsensusBuilder
from repro.consensus.bconsensus.original import BConsensusBuilder
from repro.consensus.paxos.traditional import TraditionalPaxosBuilder
from repro.consensus.roundbased.rotating import RotatingCoordinatorBuilder
from repro.core.modified_paxos import ModifiedPaxosBuilder
from repro.errors import ConfigurationError

__all__ = ["PROTOCOLS", "protocol_builder"]

PROTOCOLS: Dict[str, Tuple[Type[ProtocolBuilder], str]] = {
    "modified-paxos": (ModifiedPaxosBuilder,
                       "Builds ModifiedPaxosProcess instances (no oracles needed)."),
    "traditional-paxos": (TraditionalPaxosBuilder,
                          "Builds traditional Paxos processes sharing one Ω oracle."),
    "rotating-coordinator": (RotatingCoordinatorBuilder,
                             "Builds rotating-coordinator processes (no oracle: timeouts drive rounds)."),
    "b-consensus": (BConsensusBuilder, "Builds original B-Consensus processes."),
    "modified-b-consensus": (ModifiedBConsensusBuilder, "Builds modified B-Consensus processes."),
}


def protocol_builder(name: str, **kwargs) -> ProtocolBuilder:
    """Instantiate the builder of protocol ``name`` with ``kwargs``."""
    entry = PROTOCOLS.get(name)
    if entry is None:
        raise ConfigurationError(f"unknown protocol {name!r}; available: {', '.join(sorted(PROTOCOLS))}")
    return entry[0](**kwargs)
