"""Declarative, composable run environments.

The paper's subject is how the *environment* — adversarial pre-``TS``
delivery, the stabilization time, crash/restart schedules — determines
consensus latency.  This package makes the environment a first-class,
serializable value: an :class:`~repro.env.spec.EnvironmentSpec` bundles an
adversary spec (optionally nested) and a fault-schedule spec, all plain data
that round-trips through JSON.  Each adversary kind is one class in
:mod:`repro.env.adversaries` and each fault kind one function in
:mod:`repro.env.faults`; :mod:`repro.env.registry` is the catalogue that
names them.  Workloads write their specs literally and instantiate
scenarios *from* them instead of hand-building networks, and every
:class:`~repro.consensus.values.RunOutcome` records the resolved spec so a
result is reproducible from its own metadata.
"""
