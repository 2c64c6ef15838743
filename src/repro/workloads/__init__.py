"""Workloads: scenario builders for the experiments.

A :class:`repro.workloads.scenario.Scenario` bundles everything one run
needs apart from the protocol: the simulation configuration, how to build
the network (synchrony model + adversary), the fault plan, the initial
values, an optional post-setup hook (used to inject in-flight pre-``TS``
messages), and which processes are expected to decide.
"""
