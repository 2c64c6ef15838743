"""Declarative, composable run environments.

The paper's subject is how the *environment* — adversarial pre-``TS``
delivery, the stabilization time, crash/restart schedules — determines
consensus latency.  This package makes the environment a first-class,
serializable value: an :class:`EnvironmentSpec` bundles a synchrony spec, an
adversary spec (optionally nested), and a fault-schedule spec, all plain
data that round-trips through JSON.  :mod:`repro.env.registry` is the
catalogue: literal tables of adversary kinds, fault kinds and named
environments, each a single entry.  Workloads instantiate scenarios *from*
specs instead of hand-building networks, and every
:class:`~repro.consensus.values.RunOutcome` records the resolved spec so a
result is reproducible from its own metadata.
"""

from repro.env.registry import (
    ADVERSARY_KINDS,
    ENVIRONMENTS,
    FAULT_KINDS,
    AdversaryPrimitive,
    FaultPrimitive,
    named_environment,
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
    "ENVIRONMENTS",
    "EnvironmentSpec",
    "FAULT_KINDS",
    "FaultPrimitive",
    "FaultSpec",
    "PartitionDecl",
    "SynchronySpec",
    "named_environment",
]
