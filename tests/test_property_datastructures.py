"""Property-based tests (hypothesis) for the core data structures."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import percentile, summarize
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
from repro.storage.journal import Journal
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

    @given(
        writes=st.lists(
            st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 9)), min_size=0, max_size=30
        )
    )
    def test_journal_replay_equals_final_state(self, writes):
        journal = Journal(owner=0)
        reference = {}
        for key, value in writes:
            journal.append(key, value)
            reference[key] = value
        assert journal.replay() == reference


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
