"""Property-based tests (hypothesis) for the core data structures."""

from typing import Any, Callable, Dict, Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import percentile, summarize
from repro.analysis.trace import TraceEvent, TraceRecorder
from repro.consensus.paxos.acceptor import AcceptOutcome, AcceptorState
from repro.consensus.paxos.proposer import ProposerState
from repro.consensus.quorum import QuorumCounter, ValueQuorum, majority
from repro.core.sessions import ballot_for, next_session_ballot, owner_of, session_of
from repro.errors import ProtocolError
from repro.net.partition import minority_groups
from repro.oracle.lamport import LamportClock, LogicalTimestamp
from repro.sim.clock import ClockConfig, DriftingClock
from repro.sim.rng import SeededRng
from repro.smr.log import ReplicatedLog
from repro.storage.stable import StableStore


class TestSessionArithmetic:
    @given(session=st.integers(0, 10**6), owner=st.integers(0, 99), n=st.integers(1, 100))
    def test_ballot_roundtrip(self, session, owner, n):
        owner = owner % n
        ballot = ballot_for(session, owner, n)
        assert session_of(ballot, n) == session
        assert owner_of(ballot, n) == owner

    @given(ballot=st.integers(0, 10**9), pid=st.integers(0, 99), n=st.integers(1, 100))
    def test_next_session_ballot_properties(self, ballot, pid, n):
        pid = pid % n
        new = next_session_ballot(ballot, pid, n)
        assert new > ballot
        assert owner_of(new, n) == pid
        assert session_of(new, n) == session_of(ballot, n) + 1


class TestQuorumProperties:
    @given(n=st.integers(1, 500))
    def test_two_majorities_intersect(self, n):
        assert 2 * majority(n) > n

    @given(
        threshold=st.integers(1, 5),
        senders=st.lists(st.integers(0, 9), min_size=0, max_size=30),
    )
    def test_quorum_counter_counts_distinct_senders(self, threshold, senders):
        counter = QuorumCounter(threshold=threshold)
        for sender in senders:
            counter.add("key", sender)
        assert counter.count("key") == len(set(senders))
        assert counter.reached("key") == (len(set(senders)) >= threshold)

    @given(
        votes=st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from(["a", "b", "c"])),
            min_size=1,
            max_size=40,
        )
    )
    def test_value_quorum_unanimity_implies_quorum_value(self, votes):
        quorum = ValueQuorum(threshold=3)
        for sender, value in votes:
            quorum.add("k", sender, value)
        unanimous = quorum.unanimous_value("k")
        if unanimous is not None:
            assert quorum.quorum_value("k") == unanimous
            assert quorum.reached("k")


class TestAcceptorProperties:
    @given(
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(0, 50)), min_size=1, max_size=40
        )
    )
    def test_promise_level_never_decreases_and_votes_only_rise(self, operations):
        acceptor = AcceptorState(mbal=0)
        previous_mbal = acceptor.mbal
        previous_vote = acceptor.abal
        for is_accept, ballot in operations:
            if is_accept:
                outcome = acceptor.handle_accept(ballot, f"v{ballot}")
                if outcome is AcceptOutcome.ACCEPTED:
                    assert ballot >= previous_vote
            else:
                acceptor.handle_prepare(ballot)
            assert acceptor.mbal >= previous_mbal
            assert acceptor.abal >= previous_vote
            previous_mbal = acceptor.mbal
            previous_vote = acceptor.abal

    @given(observed=st.lists(st.integers(0, 10**6), min_size=0, max_size=30),
           pid=st.integers(0, 9), n=st.integers(2, 10))
    def test_proposer_next_ballot_above_everything_seen_and_owned(self, observed, pid, n):
        pid = pid % n
        proposer = ProposerState(pid=pid, n=n)
        for ballot in observed:
            proposer.observe_ballot(ballot)
        ballot = proposer.next_ballot()
        assert ballot % n == pid
        assert all(ballot > seen for seen in observed)
        # Minimality: the previous ballot owned by pid does not exceed the max.
        if observed:
            assert ballot - n <= max(observed)


class TestClockProperties:
    @given(rate=st.floats(0.5, 1.5), duration=st.floats(0.0, 1000.0))
    def test_duration_conversions_are_inverse(self, rate, duration):
        clock = DriftingClock(rate=rate)
        assert abs(clock.real_duration(clock.local_duration(duration)) - duration) < 1e-6

    @given(rho=st.floats(0.0, 0.2), minimum=st.floats(0.1, 100.0))
    def test_session_timeout_respects_real_minimum_for_any_admissible_rate(self, rho, minimum):
        config = ClockConfig(rho=rho)
        local = config.local_timeout_for(minimum)
        fastest = DriftingClock(rate=1.0 + rho)
        slowest = DriftingClock(rate=max(1e-6, 1.0 - rho))
        assert fastest.real_duration(local) >= minimum - 1e-9
        assert slowest.real_duration(local) <= config.sigma_for(minimum) + 1e-9


class TestLamportProperties:
    @given(
        stamps=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 20)), min_size=2, max_size=50
        )
    )
    def test_timestamp_order_is_total_and_antisymmetric(self, stamps):
        timestamps = [LogicalTimestamp(counter, pid) for counter, pid in stamps]
        ordered = sorted(timestamps)
        for left, right in zip(ordered, ordered[1:]):
            assert left < right or left == right

    @given(received=st.lists(st.integers(0, 10**6), min_size=0, max_size=50))
    def test_clock_is_monotone_under_any_observation_sequence(self, received):
        clock = LamportClock(pid=0)
        previous = clock.peek()
        for counter in received:
            now = clock.observe(LogicalTimestamp(counter, 1))
            assert now > previous
            previous = now


class TestPartitionProperties:
    @given(n=st.integers(2, 40), seed=st.integers(0, 1000))
    def test_minority_groups_never_allow_a_quorum(self, n, seed):
        spec = minority_groups(n, SeededRng(seed))
        assert spec.pids == list(range(n))
        assert spec.largest_group_size() < majority(n)


class TestStorageProperties:
    @given(
        writes=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.integers(-5, 5)),
            min_size=0,
            max_size=50,
        )
    )
    def test_store_matches_reference_dict(self, writes):
        store = StableStore(owner=0)
        reference = {}
        for key, value in writes:
            store.put(key, value)
            reference[key] = value
        for key, value in reference.items():
            assert store.get(key) == value
        assert store.snapshot() == reference

# Log entries: (command_id, command) pairs, including a duplicate submission of
# one id in a second slot, and bare values that carry no command id.
_LOG_VALUES = st.one_of(
    st.tuples(st.sampled_from(["c0", "c1", "c2"]), st.integers(0, 1)),
    st.sampled_from(["noop", ("a", "b", "c")]),
)
_LOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("learn"), st.integers(-1, 6), _LOG_VALUES),
        st.tuples(st.just("items"), st.none(), st.none()),
        st.tuples(st.just("restore"), st.none(), st.none()),
    ),
    max_size=40,
)


class TestReplicatedLogProperties:
    @given(ops=_LOG_OPS)
    def test_cached_views_match_a_fresh_recomputation(self, ops):
        log, reference = ReplicatedLog(), {}
        for op, slot, value in ops:
            if op == "items":
                assert log.items() is log.items()
            elif op == "restore":
                log = ReplicatedLog.restore(log.snapshot())
            elif slot < 0 or reference.get(slot, value) != value:
                cached = log.items()
                with pytest.raises(ProtocolError):
                    log.learn(slot, value)
                # A rejected learn keeps the cached view.
                assert log.items() is cached
            else:
                assert log.learn(slot, value) == (slot not in reference)
                reference[slot] = value
            snapshot = log.snapshot()
            assert snapshot == reference
            assert log.items() == tuple(sorted(snapshot.items()))
            assert list(log) == list(log.items())
            assert log.command_ids == {
                entry[0] for entry in snapshot.values() if isinstance(entry, tuple) and len(entry) == 2
            }


class ListTraceRecorder:
    """The list-of-TraceEvent recorder the row-based one replaced (oracle)."""

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.truncated = False
        self._events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def record(self, time, category, event, pid=None, **fields: Any) -> None:
        if not self.enabled:
            return
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.truncated = True
            return
        self._events.append(
            TraceEvent(time=time, category=category, event=event, pid=pid, fields=dict(fields))
        )

    def filter(
        self,
        event: Optional[str] = None,
        category: Optional[str] = None,
        pid: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        selected = []
        for record in self._events:
            if event is not None and record.event != event:
                continue
            if category is not None and record.category != category:
                continue
            if pid is not None and record.pid != pid:
                continue
            if predicate is not None and not predicate(record):
                continue
            selected.append(record)
        return selected

    def first(self, event: str, **criteria: Any) -> Optional[TraceEvent]:
        matches = self.filter(event=event, **criteria)
        return matches[0] if matches else None

    def last(self, event: str, **criteria: Any) -> Optional[TraceEvent]:
        matches = self.filter(event=event, **criteria)
        return matches[-1] if matches else None

    def count(self, event: str, **criteria: Any) -> int:
        return len(self.filter(event=event, **criteria))

    def dump(self, limit: Optional[int] = None) -> str:
        events = self._events if limit is None else self._events[:limit]
        lines = [record.describe() for record in events]
        if limit is not None and len(self._events) > limit:
            lines.append(f"... ({len(self._events) - limit} more events)")
        return "\n".join(lines)


_TRACE_EVENTS = ["send", "deliver", "deliver_to_crashed", "timer", "session_enter", "decide"]
_TRACE_CATEGORIES = ["net", "node", "protocol", "sim"]
_TRACE_PIDS = [None, 0, 1, 2]
_TRACE_TUPLES = [
    ("send", "deliver"),
    ("deliver_to_crashed", "timer", "session_enter"),
    ("decide", "absent", "decide"),
]
_TIMES = st.floats(0.0, 100.0, allow_nan=False)
_KINDS = st.sampled_from(["phase1a", "phase2b"])
_TRACE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"), _TIMES, st.sampled_from(_TRACE_CATEGORIES),
            st.sampled_from(_TRACE_EVENTS), st.sampled_from(_TRACE_PIDS),
            st.dictionaries(
                st.sampled_from(["session", "value", "ballot", "via"]),
                st.one_of(st.integers(-3, 3), st.text(max_size=3), st.none()),
                max_size=3,
            ),
        ),
        st.tuples(
            st.just("send"), _TIMES, st.integers(0, 2), st.integers(0, 2), _KINDS,
            st.integers(0, 10**6), st.booleans(),
        ),
        st.tuples(
            st.just("deliver"), _TIMES, st.booleans(), st.integers(0, 2), st.integers(0, 2),
            _KINDS, st.integers(0, 10**6),
        ),
        st.tuples(st.just("timer"), _TIMES, st.integers(0, 2), st.sampled_from(["eps", "tau"])),
    ),
    max_size=30,
)


def _apply_trace_op(trace: TraceRecorder, oracle: ListTraceRecorder, op: tuple) -> None:
    """One recording call on ``trace`` and its ``record`` equivalent on ``oracle``."""
    name, time, *args = op
    if name == "record":
        category, event, pid, fields = args
        trace.record(time, category, event, pid, **fields)
        oracle.record(time, category, event, pid, **fields)
    elif name == "send":
        src, dst, kind, msg_id, dropped = args
        trace.record_send(time, src, dst, kind, msg_id, dropped)
        oracle.record(
            time, "net", "send", pid=src, dst=dst, kind=kind, msg_id=msg_id, dropped=dropped
        )
    elif name == "deliver":
        accepted, dst, src, kind, msg_id = args
        trace.record_deliver(time, accepted, dst, src, kind, msg_id)
        event = "deliver" if accepted else "deliver_to_crashed"
        oracle.record(time, "net", event, pid=dst, src=src, kind=kind, msg_id=msg_id)
    else:
        pid, timer = args
        trace.record_timer(time, pid, timer)
        oracle.record(time, "node", "timer", pid=pid, name=timer)


def _exact(events: List[Optional[TraceEvent]]) -> List[Any]:
    """Events as plain data, field key order included."""
    return [
        None if e is None else (e.time, e.category, e.event, e.pid, list(e.fields.items()))
        for e in events
    ]


class TestTraceRecorderMatchesListOracle:
    # Each example runs a few hundred queries on both recorders.
    @settings(deadline=None)
    @given(
        ops=_TRACE_OPS,
        capacity=st.one_of(st.none(), st.integers(0, 12)),
        enabled=st.booleans(),
    )
    def test_every_read_matches_the_list_recorder(self, ops, capacity, enabled):
        trace = TraceRecorder(enabled=enabled, capacity=capacity)
        oracle = ListTraceRecorder(enabled=enabled, capacity=capacity)
        for op in ops:
            _apply_trace_op(trace, oracle, op)

        assert len(trace) == len(oracle)
        assert trace.truncated == oracle.truncated
        assert _exact(list(trace)) == _exact(list(oracle))
        assert _exact(trace.events) == _exact(oracle.events)
        for limit in (None, 0, 1, 5, len(oracle)):
            assert trace.dump(limit) == oracle.dump(limit)

        criteria: List[Dict[str, Any]] = [
            {"category": category, "pid": pid}
            for category in [None, *_TRACE_CATEGORIES]
            for pid in _TRACE_PIDS
        ]
        for event in [None, *_TRACE_EVENTS, "absent"]:
            for where in criteria:
                expected = oracle.filter(event=event, **where)
                assert _exact(trace.filter(event=event, **where)) == _exact(expected)
                assert _exact([trace.first(event, **where)]) == _exact([oracle.first(event, **where)])
                assert _exact([trace.last(event, **where)]) == _exact([oracle.last(event, **where)])
                assert trace.count(event, **where) == oracle.count(event, **where)
        for names in _TRACE_TUPLES:
            for where in criteria:
                expected = oracle.filter(predicate=lambda e, names=names: e.event in names, **where)
                assert _exact(trace.filter(event=names, **where)) == _exact(expected)


class TestStatsProperties:
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_summary_bounds(self, values):
        summary = summarize(values)
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.minimum <= summary.mean <= summary.maximum
        assert summary.minimum <= summary.p95 <= summary.maximum

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        fraction=st.floats(0.0, 1.0),
    )
    def test_percentile_within_range(self, values, fraction):
        result = percentile(values, fraction)
        assert min(values) <= result <= max(values)
