"""Declarative, composable run environments.

The paper's subject is how the *environment* — adversarial pre-``TS``
delivery, the stabilization time, crash/restart schedules — determines
consensus latency.  This package makes the environment a first-class,
serializable value: an :class:`EnvironmentSpec` bundles a synchrony spec, an
adversary spec (optionally nested), and a fault-schedule spec, all plain
data that round-trips through JSON.  :mod:`repro.env.registry` is the
catalogue of primitives: literal tables of adversary kinds and fault kinds,
each a single entry.  Workloads write their specs literally and instantiate
scenarios *from* them instead of hand-building networks, and every
:class:`~repro.consensus.values.RunOutcome` records the resolved spec so a
result is reproducible from its own metadata.
"""

from repro.env.registry import (
    ADVERSARY_KINDS,
    FAULT_KINDS,
    AdversaryPrimitive,
    FaultPrimitive,
)
from repro.env.spec import (
    AdversarySpec,
    EnvironmentSpec,
    FaultSpec,
    PartitionDecl,
    SynchronySpec,
)

__all__ = [
    "ADVERSARY_KINDS",
    "AdversaryPrimitive",
    "AdversarySpec",
    "EnvironmentSpec",
    "FAULT_KINDS",
    "FaultPrimitive",
    "FaultSpec",
    "PartitionDecl",
    "SynchronySpec",
]
