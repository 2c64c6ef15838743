"""Analytic timing bounds from the paper's proof.

Section 4 proves that every process that is non-faulty at the stabilization
time ``TS`` decides by ``TS + ε + 3τ + 5δ`` where ``τ = max(2δ + ε, σ)`` and
``σ`` is the worst-case real expiry of the session timer (at least ``4δ``).
With accurate timers (``σ ≈ 4δ``) and a small keep-alive interval
(``ε ≪ δ``) this is "about 17δ".

These functions compute the bounds for a given :class:`repro.params.TimingParams`
so experiments can print *measured vs. bound* side by side, and so tests can
assert that measured decision times respect the analysis.

The paper's claims are checked here too, next to the bounds they test.
:data:`CLAIMS` maps each experiment id (E1–E9) to its named claims; each
claim reads one full-scale :class:`~repro.harness.tables.ExperimentTable`
and returns ``(measured, relation, limit)``, and :func:`judge` turns them
into :class:`Verdict` lines that the table prints after its notes.  A claim
over an empty column or a missing cell measures ``None`` and fails: no
verdict passes vacuously.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Mapping, Optional, Tuple

from repro.params import TimingParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.tables import ExperimentTable

__all__ = [
    "CLAIMS",
    "ROUND_TIMEOUT_FACTOR",
    "Verdict",
    "decision_bound",
    "judge",
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


# --------------------------------------------------------------------------- claims
_RELATIONS: Mapping[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class Verdict:
    """One claim checked on a table: ``measured <relation> limit``.

    A verdict missing either side (an empty column, a missing cell) fails.
    """

    name: str
    measured: Optional[float]
    relation: str
    limit: Optional[float]

    @property
    def passed(self) -> bool:
        if self.measured is None or self.limit is None:
            return False
        return _RELATIONS[self.relation](self.measured, self.limit)


Measurement = Tuple[Optional[float], str, Optional[float]]
Claim = Callable[["ExperimentTable", TimingParams], Measurement]
Row = Mapping[str, Any]


def _column(table: "ExperimentTable", header: str, **where: Any) -> Optional[List[Any]]:
    """``header`` of every row matching ``where``; ``None`` if no row matches or a cell is missing."""
    values = [
        row.get(header)
        for row in table.rows
        if all(row.get(key) == value for key, value in where.items())
    ]
    return values if values and all(value is not None for value in values) else None


def _cell(table: "ExperimentTable", header: str, **where: Any) -> Optional[float]:
    """``header`` of the one row matching ``where``; ``None`` unless exactly one matches."""
    values = _column(table, header, **where)
    return values[0] if values is not None and len(values) == 1 else None


def _largest(table: "ExperimentTable", header: str, **where: Any) -> Optional[float]:
    values = _column(table, header, **where)
    return max(values) if values else None


def _spread(table: "ExperimentTable", header: str) -> Optional[float]:
    values = _column(table, header)
    return max(values) - min(values) if values else None


def _rise(table: "ExperimentTable", header: str) -> Optional[float]:
    """The last row's ``header`` minus the first row's."""
    values = _column(table, header)
    return values[-1] - values[0] if values else None


def _last(table: "ExperimentTable", header: str) -> Optional[float]:
    values = _column(table, header)
    return values[-1] if values else None


def _slope(table: "ExperimentTable", header: str, over: str) -> Optional[float]:
    """The rise of ``header`` per unit of ``over``, from the first row to the last."""
    values, xs = _column(table, header), _column(table, over)
    if values is None or xs is None or xs[-1] == xs[0]:
        return None
    return (values[-1] - values[0]) / (xs[-1] - xs[0])


def _rows_failing(table: "ExperimentTable", ok: Callable[[Row], bool]) -> Optional[int]:
    """How many rows fail ``ok``; ``None`` for a table without rows."""
    return sum(not ok(row) for row in table.rows) if table.rows else None


def _has(*headers: str) -> Callable[[Row], bool]:
    return lambda row: all(row.get(header) is not None for header in headers)


def _decided(row: Row) -> bool:
    return row.get("max_lag_delta") is not None and row.get("undecided") == 0


def _bound(params: TimingParams) -> float:
    """The Modified Paxos bound ``ε + 3τ + 5δ``, in ``δ``."""
    return decision_bound(params) / params.delta


def _restart_bound(params: TimingParams) -> float:
    return restart_decision_bound(params) / params.delta


def _e6_rate_falls(table: "ExperimentTable") -> Optional[float]:
    """The chattiest ε's keep-alive rate over the quietest's."""
    rates = _column(table, "post_ts_msgs_per_proc_per_delta")
    return rates[0] / rates[-1] if rates and rates[-1] > 0 else None


def _e6_bound_falls(table: "ExperimentTable") -> Optional[int]:
    """How many times the bound falls from one ε to the next."""
    bounds = _column(table, "bound_delta")
    return None if bounds is None else sum(b < a - 1e-9 for a, b in zip(bounds, bounds[1:]))


def _e6_excess(table: "ExperimentTable") -> Optional[float]:
    """The largest margin of a row's lag over that row's bound."""
    lags, bounds = _column(table, "max_lag_delta"), _column(table, "bound_delta")
    return None if lags is None or bounds is None else max(map(operator.sub, lags, bounds))


def _at_grid_ends(table: "ExperimentTable", header: str, **where: Any) -> Tuple[Optional[float], Optional[float]]:
    """``header`` at the grid's first and last ``n``, among the rows matching ``where``."""
    ns = _column(table, "n")
    if ns is None:
        return None, None
    return _cell(table, header, n=ns[0], **where), _cell(table, header, n=ns[-1], **where)


def _e8_growth(table: "ExperimentTable", protocol: str) -> Measurement:
    """A baseline's adversarial lag at the grid's last ``n`` minus at its first."""
    first, last = _at_grid_ends(table, "adversarial_lag_delta", protocol=protocol)
    return (None if first is None or last is None else last - first), ">", 0.0


def _e8_overtakes(table: "ExperimentTable", protocol: str) -> Measurement:
    """A baseline's adversarial lag against Modified Paxos's chaos lag, at the grid's last ``n``."""
    _, baseline = _at_grid_ends(table, "adversarial_lag_delta", protocol=protocol)
    _, modified = _at_grid_ends(table, "chaos_lag_delta", protocol="modified-paxos")
    return baseline, ">", modified


_E6_COLUMNS = ("post_ts_msgs_per_proc_per_delta", "bound_delta", "max_lag_delta")
_E9_GLOBAL = "worst_global_latency_delta"

# Each experiment's claims, by verdict name; each reads the table (t) and the
# experiments' timing constants (p) and returns (measured, relation, limit).
CLAIMS: Mapping[str, Mapping[str, Claim]] = {
    # C1: Modified Paxos decides within the bound, whatever N is.
    "E1": {
        "e1_every_n_decides": lambda t, p: (_rows_failing(t, _decided), "==", 0),
        "e1_lag_within_bound": lambda t, p: (_largest(t, "max_lag_delta"), "<=", _bound(p)),
        "e1_flat_in_n": lambda t, p: (_spread(t, "max_lag_delta"), "<=", 10.0),
    },
    # C2: traditional Paxos pays about 2δ per obsolete ballot.
    "E2": {
        "e2_every_n_decides": lambda t, p: (_rows_failing(t, _has("max_lag_delta")), "==", 0),
        "e2_grows_with_n": lambda t, p: (_rise(t, "max_lag_delta"), ">", 2.0),
        "e2_slope_per_obsolete_ballot": lambda t, p: (_slope(t, "max_lag_delta", "obsolete_k"), ">=", 1.0),
        "e2_largest_n_exceeds_modified_bound": lambda t, p: (_last(t, "max_lag_delta"), ">", _bound(p)),
    },
    # C3: the rotating coordinator pays one round timeout per crashed coordinator.
    "E3": {
        "e3_every_f_decides": lambda t, p: (_rows_failing(t, _has("max_lag_delta")), "==", 0),
        "e3_grows_with_f": lambda t, p: (_rise(t, "max_lag_delta"), ">", 0.0),
        "e3_slope_per_crashed_coordinator": lambda t, p: (_slope(t, "max_lag_delta", "faulty_f"), ">=", 2.0),
        "e3_largest_f_exceeds_modified_bound": lambda t, p: (_last(t, "max_lag_delta"), ">", _bound(p)),
    },
    # C5: Modified B-Consensus decides in O(δ), "about the same" as Modified Paxos.
    "E4": {
        "e4_every_n_decides": lambda t, p: (_rows_failing(t, _decided), "==", 0),
        "e4_lag_within_twice_modified_bound": lambda t, p: (_largest(t, "max_lag_delta"), "<=", 2.0 * _bound(p)),
        "e4_flat_in_n": lambda t, p: (_spread(t, "max_lag_delta"), "<=", 12.0),
    },
    # C4: a process restarting after TS decides within τ + 5δ, however late it restarts.
    "E5": {
        "e5_every_offset_recovers": lambda t, p: (_rows_failing(t, _has("max_recovery_delta")), "==", 0),
        "e5_recovery_within_bound": lambda t, p: (_largest(t, "max_recovery_delta"), "<=", _restart_bound(p)),
        "e5_flat_in_offset": lambda t, p: (_spread(t, "max_recovery_delta"), "<=", _restart_bound(p)),
    },
    # C6: a larger ε sends fewer keep-alives and loosens the bound; each lag meets its own.
    "E6": {
        "e6_every_epsilon_measured": lambda t, p: (_rows_failing(t, _has(*_E6_COLUMNS)), "==", 0),
        "e6_keepalive_rate_falls": lambda t, p: (_e6_rate_falls(t), ">", 3.0),
        "e6_bound_monotone_in_epsilon": lambda t, p: (_e6_bound_falls(t), "==", 0),
        "e6_lag_within_bound": lambda t, p: (_e6_excess(t), "<=", 0.0),
    },
    # C6: stable and failure-free, every protocol decides within a few δ; the Paxos
    # cold start (phase 1 not run in advance) takes about four message delays.
    "E7": {
        "e7_every_protocol_decides": lambda t, p: (_rows_failing(t, _has("max_decision_delta")), "==", 0),
        "e7_below_modified_bound": lambda t, p: (_largest(t, "max_decision_delta"), "<", _bound(p)),
        "e7_within_ten_delays": lambda t, p: (_largest(t, "max_decision_delta"), "<=", 10.0),
        "e7_modified_paxos_cold_start": lambda t, p: (
            _cell(t, "max_decision_delta", protocol="modified-paxos"), "<=", 6.0
        ),
    },
    # Under one chaos workload the modified algorithms stay within their bound at every
    # n; under its own worst case each baseline grows with n and overtakes them.
    "E8": {
        "e8_modified_paxos_within_bound": lambda t, p: (
            _largest(t, "chaos_lag_delta", protocol="modified-paxos"), "<=", _bound(p)
        ),
        "e8_modified_b_consensus_within_twice_bound": lambda t, p: (
            _largest(t, "chaos_lag_delta", protocol="modified-b-consensus"), "<=", 2.0 * _bound(p)
        ),
        "e8_traditional_paxos_grows_with_n": lambda t, p: _e8_growth(t, "traditional-paxos"),
        "e8_rotating_coordinator_grows_with_n": lambda t, p: _e8_growth(t, "rotating-coordinator"),
        "e8_traditional_paxos_overtakes_modified_paxos": lambda t, p: _e8_overtakes(t, "traditional-paxos"),
        "e8_rotating_coordinator_overtakes_modified_paxos": lambda t, p: _e8_overtakes(t, "rotating-coordinator"),
    },
    # C6, §4: with phase 1 run in advance, a command at the leader is learned within 3
    # message delays and one at a follower within 4; pre-TS commands within twice the bound.
    "E9": {
        "e9_leader_within_three_delays": lambda t, p: (
            _cell(t, _E9_GLOBAL, case="stable, submitted at leader"), "<=", 3.0
        ),
        "e9_follower_within_four_delays": lambda t, p: (
            _cell(t, _E9_GLOBAL, case="stable, submitted at follower"), "<=", 4.0
        ),
        "e9_chaos_within_twice_bound": lambda t, p: (
            _cell(t, _E9_GLOBAL, case="pre-TS submissions, learned after TS"), "<=", 2.0 * _bound(p)
        ),
    },
}


def judge(experiment: str, table: "ExperimentTable", params: TimingParams) -> List[Verdict]:
    """Check every claim of ``experiment`` on its full-scale ``table``."""
    return [Verdict(name, *claim(table, params)) for name, claim in CLAIMS[experiment].items()]
