"""State-machine replication on top of Modified Paxos (multi-decree).

The paper's "Reducing Message Complexity" discussion (Section 4) is about a
*sequence* of consensus instances: "In ordinary Paxos, phase 1 is executed in
advance for all instances of the algorithm, and all nonfaulty processes
decide within 3 message delays when the system is stable.  By setting ε large
enough and using the appropriate acknowledgement messages, our modified
version of Paxos can be made to have this same behavior in the stable case."

This package realizes that: a multi-decree variant of the session-based
Modified Paxos in which one ballot (and one phase 1) covers every instance,
so that during stable periods a command submitted to the current ballot owner
is learned everywhere after one phase-2 round trip (and one extra delay when
the command is submitted to a non-owner and must be forwarded).  The session
machinery, ε keep-alive, and stable storage are exactly those of the
single-decree algorithm, so recovery after instability keeps the
``O(δ)``-after-stabilization property.

Contents:

* :mod:`repro.smr.log` — the replicated log (slot → decided command);
* :mod:`repro.smr.state_machine` — the deterministic key/value store every
  replica applies its log to;
* :mod:`repro.smr.messages` — the multi-decree message vocabulary;
* :mod:`repro.smr.multi_paxos` — the protocol and its builder;
* :mod:`repro.smr.workload` — client command schedules;
* :mod:`repro.smr.metrics` — per-command latency extraction from traces.
"""
