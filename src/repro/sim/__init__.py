"""Discrete-event simulation kernel.

The kernel is deliberately protocol-agnostic: it knows about events, virtual
time, per-process drifting clocks, timers, and the crash/restart lifecycle of
processes, but nothing about consensus.  Consensus protocols are written
against :class:`repro.sim.process.Process` and
:class:`repro.sim.process.ProcessContext` and are driven entirely by the
:class:`repro.sim.simulator.Simulator`.
"""
