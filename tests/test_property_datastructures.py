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
from repro.params import TimingParams
from repro.sim.clock import DriftingClock
from repro.sim.rng import SeededRng
from repro.smr.log import ReplicatedLog
from repro.storage.stable import StableStore

from tests.helpers import queue_simulator


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
    def test_value_quorum_value_has_a_quorum_of_reports(self, votes):
        quorum = ValueQuorum(threshold=3)
        for sender, value in votes:
            quorum.add("k", sender, value)
        chosen = quorum.quorum_value("k")
        if chosen is not None:
            assert sum(1 for value in quorum.votes("k").values() if value == chosen) >= 3
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
        assert abs(clock.real_duration(clock.local_time(duration)) - duration) < 1e-6

    @given(rho=st.floats(0.0, 0.2), delta=st.floats(0.025, 25.0))
    def test_session_timeout_respects_real_minimum_for_any_admissible_rate(self, rho, delta):
        params = TimingParams(delta=delta, rho=rho)
        local = params.session_timeout_local
        fastest = DriftingClock(rate=1.0 + rho)
        slowest = DriftingClock(rate=max(1e-6, 1.0 - rho))
        assert fastest.real_duration(local) >= 4.0 * delta - 1e-9
        assert slowest.real_duration(local) <= params.sigma + 1e-9


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
        previous = LogicalTimestamp(clock.counter, clock.pid)
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


# Queue operations: push at a small integer time (many ties), cancel the
# i-th still-pending entry (mod their count), pop at or before a horizon.
_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 5)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("pop"), st.one_of(st.integers(0, 6), st.just(float("inf")))),
    ),
    max_size=60,
)


class _Loop:
    """A bare queue driven by ``Simulator.run``: each entry's action records its ``(time, seq)``."""

    def __init__(self) -> None:
        self.simulator, self.queue = queue_simulator()
        self.fired: List[tuple] = []
        self.pushes = 0

    def push(self, time: float) -> int:
        """Push an entry at ``time`` and return what ``EventQueue.push`` returned."""
        seq = self.queue.push(time, self.fired.append, ((time, self.pushes),))
        self.pushes += 1
        return seq

    def cancel(self, seq: int) -> None:
        self.queue.cancel(seq)

    def pop(self, horizon: float) -> Optional[tuple]:
        """Fire the next live entry at or before ``horizon`` as a run does; its ``(time, seq)`` or None."""
        before = len(self.fired)
        self.simulator.run(until=horizon, max_events=1)
        return self.fired[before] if len(self.fired) > before else None


class TestEventQueueProperties:
    @given(ops=_QUEUE_OPS)
    def test_pops_follow_time_seq_order_and_skip_exactly_the_cancelled(self, ops):
        loop = _Loop()
        queue = loop.queue
        pending = {}  # seq -> time of every pushed, not cancelled, not popped entry
        for op, arg in ops:
            if op == "push":
                seq = loop.push(float(arg))
                assert seq not in pending
                pending[seq] = float(arg)
            elif op == "cancel" and pending:
                seq = sorted(pending)[arg % len(pending)]
                loop.cancel(seq)
                del pending[seq]
            elif op == "pop":
                due = [(time, seq) for seq, time in pending.items() if time <= arg]
                entry = loop.pop(arg)
                if not due:
                    assert entry is None
                else:
                    assert entry == min(due)
                    del pending[entry[1]]
            in_heap = {entry[1] for entry in queue._heap}
            # Every cancelled seq is still in the heap, and the heap holds
            # nothing but pending and cancelled entries.
            assert queue._cancelled <= in_heap
            assert in_heap == set(pending) | queue._cancelled
        drained = []
        while (entry := loop.pop(float("inf"))) is not None:
            drained.append(entry)
        assert drained == sorted((time, seq) for seq, time in pending.items())
        assert queue._cancelled == set()

    @given(ops=_QUEUE_OPS)
    def test_push_returns_the_number_of_earlier_pushes(self, ops):
        loop = _Loop()
        pushes = 0
        live = []  # seqs pushed and neither cancelled nor popped
        for op, arg in ops:
            if op == "push":
                assert loop.push(float(arg)) == pushes
                live.append(pushes)
                pushes += 1
            elif op == "cancel" and live:
                loop.cancel(live.pop(arg % len(live)))
            elif op == "pop":
                entry = loop.pop(arg)
                if entry is not None:
                    live.remove(entry[1])

    @given(
        times=st.lists(st.integers(0, 5), min_size=1, max_size=30),
        picks=st.lists(st.integers(0, 29), max_size=30),
        data=st.data(),
    )
    def test_the_order_of_cancels_does_not_change_the_pops(self, times, picks, data):
        doomed = sorted({pick % len(times) for pick in picks})
        shuffled = data.draw(st.permutations(doomed))
        pops = []
        for order in (doomed, shuffled):
            loop = _Loop()
            for time in times:
                loop.push(float(time))
            for seq in order:
                loop.cancel(seq)
            popped = []
            while (entry := loop.pop(float("inf"))) is not None:
                popped.append(entry)
            pops.append(popped)
        assert pops[0] == pops[1]
        assert [seq for _, seq in pops[0]] == sorted(
            set(range(len(times))) - set(doomed), key=lambda seq: (times[seq], seq)
        )


# Log entries: (command_id, command) pairs, including a duplicate submission of
# one id in a second slot, and bare values that carry no command id.
_LOG_VALUES = st.one_of(
    st.tuples(st.sampled_from(["c0", "c1", "c2"]), st.integers(0, 1)),
    st.sampled_from(["noop", ("a", "b", "c")]),
)
_LOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("learn"), st.integers(-1, 8), _LOG_VALUES),
        st.tuples(st.just("restore"), st.none(), st.none()),
    ),
    max_size=40,
)


class TestReplicatedLogProperties:
    @given(ops=_LOG_OPS)
    def test_incremental_views_match_a_fresh_recomputation(self, ops):
        """Over learns with gaps, repeats and rejected conflicts, every view
        the log keeps equals a naive recomputation from its snapshot."""
        log, reference = ReplicatedLog(), {}
        for op, slot, value in ops:
            if op == "restore":
                log = ReplicatedLog.restore(log.snapshot())
            elif slot < 0 or reference.get(slot, value) != value:
                with pytest.raises(ProtocolError):
                    log.learn(slot, value)
            else:
                assert log.learn(slot, value) == (slot not in reference)
                reference[slot] = value
            snapshot = log.snapshot()
            assert snapshot == reference
            prefix = 0
            while prefix in snapshot:
                prefix += 1
            assert log.prefix == prefix
            assert log.contiguous_prefix() == [snapshot[slot] for slot in range(prefix)]
            assert log.highest_slot == max(snapshot, default=-1)
            for start in range(-1, 11):
                assert log.items_from(start) == tuple(
                    sorted(item for item in snapshot.items() if item[0] >= start)
                )
            assert log.command_ids == {
                entry[0] for entry in snapshot.values() if isinstance(entry, tuple) and len(entry) == 2
            }


class ListTraceRecorder:
    """The list-of-TraceEvent recorder the row-based one replaced (oracle)."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def record(self, time, category, event, pid=None, **fields: Any) -> None:
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


_TRACE_EVENTS = ["send", "deliver", "deliver_to_crashed", "timer", "session_enter", "decide"]
_TRACE_CATEGORIES = ["net", "node", "protocol", "sim"]
_TRACE_PIDS = [None, 0, 1, 2]
_TRACE_TUPLES = [
    ("send", "deliver"),
    ("deliver_to_crashed", "timer", "session_enter"),
    ("decide", "absent", "decide"),
]
_TRACE_OPS = st.lists(
    st.tuples(
        st.floats(0.0, 100.0, allow_nan=False), st.sampled_from(_TRACE_CATEGORIES),
        st.sampled_from(_TRACE_EVENTS), st.sampled_from(_TRACE_PIDS),
        st.dictionaries(
            st.sampled_from(["session", "value", "ballot", "via"]),
            st.one_of(st.integers(-3, 3), st.text(max_size=3), st.none()),
            max_size=3,
        ),
    ),
    max_size=30,
)


def _exact(events: List[Optional[TraceEvent]]) -> List[Any]:
    """Events as plain data, field key order included."""
    return [
        None if e is None else (e.time, e.category, e.event, e.pid, list(e.fields.items()))
        for e in events
    ]


class TestTraceRecorderMatchesListOracle:
    # Each example runs a few hundred queries on both recorders.
    @settings(deadline=None)
    @given(ops=_TRACE_OPS)
    def test_every_read_matches_the_list_recorder(self, ops):
        trace = TraceRecorder()
        oracle = ListTraceRecorder()
        for time, category, event, pid, fields in ops:
            trace.record(time, category, event, pid, **fields)
            oracle.record(time, category, event, pid, **fields)

        assert len(trace) == len(oracle)
        assert _exact(list(trace)) == _exact(list(oracle))
        assert _exact(trace.events) == _exact(oracle.events)

        criteria: List[Dict[str, Any]] = [
            {"category": category, "pid": pid}
            for category in [None, *_TRACE_CATEGORIES]
            for pid in _TRACE_PIDS
        ]
        for event in [None, *_TRACE_EVENTS, "absent"]:
            for where in criteria:
                expected = oracle.filter(event=event, **where)
                assert _exact(trace.filter(event=event, **where)) == _exact(expected)
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
