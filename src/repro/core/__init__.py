"""The paper's primary contribution: session-based Modified Paxos.

Section 4 of the paper modifies the Paxos consensus algorithm so that it
reaches consensus within ``O(δ)`` seconds of the (unknown) stabilization
time, with no leader-election oracle:

* ballot numbers are grouped into *sessions* of ``N`` consecutive ballots
  (``session(b) = ⌊b/N⌋``);
* a process may only start a new ballot (Start Phase 1) when its session
  timer has expired **and** it has heard from a majority of processes in its
  current session — the rule that keeps obsolete, anomalously high ballots
  from ever being generated;
* every session entry re-broadcasts a phase 1a message, and an ``ε``
  keep-alive re-broadcast guarantees communication resumes quickly after
  stabilization.

The proof in the paper yields the decision bound ``TS + ε + 3τ + 5δ`` with
``τ = max(2δ + ε, σ)``; :mod:`repro.core.timing` computes those bounds and
the experiments compare them against measured decision times.
"""
