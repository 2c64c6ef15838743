"""Analytic timing bounds from the paper's proof.

Section 4 proves that every process that is non-faulty at the stabilization
time ``TS`` decides by ``TS + ε + 3τ + 5δ`` where ``τ = max(2δ + ε, σ)`` and
``σ`` is the worst-case real expiry of the session timer (at least ``4δ``).
With accurate timers (``σ ≈ 4δ``) and a small keep-alive interval
(``ε ≪ δ``) this is "about 17δ".

These functions compute the bounds for a given :class:`repro.params.TimingParams`
so experiments can print *measured vs. bound* side by side, and so tests can
assert that measured decision times respect the analysis.
"""

from __future__ import annotations

from repro.params import TimingParams

__all__ = [
    "ROUND_TIMEOUT_FACTOR",
    "decision_bound",
    "restart_decision_bound",
    "traditional_paxos_worst_case",
    "rotating_coordinator_worst_case",
]

ROUND_TIMEOUT_FACTOR = 4.0
"""The rotating-coordinator round timeout, in ``δ``: the protocol arms it, the model charges it."""


def decision_bound(params: TimingParams) -> float:
    """Paper bound on decision lag after ``TS``: ``ε + 3τ + 5δ``."""
    return params.epsilon + 3.0 * params.tau + 5.0 * params.delta


def restart_decision_bound(params: TimingParams) -> float:
    """Bound on how long a process restarting after ``TS`` needs to decide.

    The paper observes that once the first post-stability "clean" session
    starts (time ``T5`` in the proof), a new session starts at most every
    ``τ`` seconds and each delivers the deciding phase 2b messages within
    ``5δ`` of its start, so a process restarting after ``T5`` decides within
    about ``τ + 5δ`` of its restart.  (A restart before ``T5`` is covered by
    :func:`decision_bound` applied from the restart time.)
    """
    return params.tau + 5.0 * params.delta


def traditional_paxos_worst_case(params: TimingParams, obsolete_ballots: int) -> float:
    """Order-of-magnitude worst case for Ω-driven traditional Paxos (Section 2).

    Each obsolete higher-ballot message that surfaces after ``TS`` can ruin
    one ballot attempt, costing the leader roughly a round trip (``2δ``) to
    discover the rejection plus the retry itself; with ``k`` such messages
    the decision takes about ``(2k + 4)·δ`` after the leader starts.  This is
    the ``O(Nδ)`` behaviour (``k`` can be as large as ``⌈N/2⌉ − 1``).
    """
    return (2.0 * obsolete_ballots + 4.0) * params.delta


def rotating_coordinator_worst_case(params: TimingParams, faulty_coordinators: int) -> float:
    """Order-of-magnitude worst case for the rotating-coordinator baseline (Section 3).

    Every round whose coordinator crashed before ``TS`` must time out
    (``ROUND_TIMEOUT_FACTOR · δ``) before the next round starts; after the
    first round with a correct coordinator, deciding takes a few more ``δ``.
    """
    return (ROUND_TIMEOUT_FACTOR * faulty_coordinators + 4.0) * params.delta
