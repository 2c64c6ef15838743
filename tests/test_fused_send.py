"""One ``Network.send`` call over k destinations equals k single sends.

A broadcast reaches the network as one call over its destination tuple.
Each destination must be served exactly as a lone send is: the next message
id, one fate, the delivery push and the duplicate coin, in destination
order, so ids, RNG draws, queue sequence numbers and every monitor count
match a run of single sends.  The monitor hears each call once, with the
call's count.  Each destination's fate is read through
:func:`tests.helpers.capture_sent_envelopes` (the network returns nothing
and builds no envelope), and each pending delivery from its queue entry
``(time, seq, node.deliver, (message, src, msg_id))``.
"""

from dataclasses import fields

import pytest

from repro.core.messages import Phase1a
from repro.net.monitor import MessageStats
from repro.net.network import Network
from repro.net.synchrony import EventualSynchrony
from repro.sim.rng import SeededRng
from tests.helpers import build_adversary, capture_sent_envelopes, silent_simulator

K = 5
TS = 10.0
SENDER = 2
# Pre-TS calls, a call at TS, two calls at one post-TS time, a later one.
CALL_TIMES = (0.0, 3.5, TS, TS + 0.5, TS + 0.5, TS + 2.0)


def make_network(seed, duplicate_prob=1.0):
    adversary = build_adversary(
        "random-chaos",
        {"drop_probability": 0.3, "defer_probability": 0.2, "duplicate_prob": duplicate_prob},
        n=K, ts=TS,
    )
    network = Network(EventualSynchrony(ts=TS, delta=1.0, adversary=adversary),
                      SeededRng(seed, label="net"))
    return network, silent_simulator(network, n=K)


@pytest.fixture
def sent(monkeypatch):
    """Every destination of every ``Network.send`` call the test makes, in order."""
    return capture_sent_envelopes(monkeypatch)


def drive(sent, fused, seed, duplicate_prob=1.0, call_times=CALL_TIMES):
    """Make each call of ``call_times`` to all K pids; return network, simulator, envelopes.

    The envelopes are the records ``sent`` gains meanwhile: one per
    destination, lost ones included (``deliver_time`` None).
    """
    network, simulator = make_network(seed, duplicate_prob)
    everyone = tuple(range(K))
    before = len(sent)
    for mbal, time in enumerate(call_times):
        simulator._time = time
        message = Phase1a(mbal=mbal)
        if fused:
            network.send(message, SENDER, everyone)
        else:
            for dst in everyone:
                network.send(message, SENDER, (dst,))
    return network, simulator, sent[before:]


def row(envelope):
    """A captured record's fields; ``deliver_time`` is None when lost."""
    return (envelope.message, envelope.src, envelope.dst, envelope.send_time, envelope.era,
            envelope.msg_id, envelope.deliver_time)


def delivery(time, action, args):
    """A queued delivery as ``(message, src, dst, msg_id, time)``; its action is ``node.deliver``."""
    message, src, msg_id = args
    return (message, src, action.__self__.pid, msg_id, time)


def delivery_of(envelope):
    """The delivery a captured record's message was pushed as."""
    return (envelope.message, envelope.src, envelope.dst, envelope.msg_id, envelope.deliver_time)


def counts(stats):
    """Every ``MessageStats`` field, ``by_kind`` as a plain dict so a zero entry shows."""
    values = {field.name: getattr(stats, field.name) for field in fields(stats)}
    values["by_kind"] = dict(stats.by_kind)
    return values


def queued(simulator):
    """Every pending delivery as ``(time, seq, delivery)``, in queue order."""
    return [
        (time, seq, delivery(time, action, args))
        for time, seq, action, args in sorted(simulator._events._heap)
    ]


@pytest.mark.parametrize("duplicate_prob", [0.0, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestOneCallEqualsSingleSends:
    def test_envelopes_ids_and_delivery_times_match(self, sent, seed, duplicate_prob):
        _, fused_sim, fused = drive(sent, True, seed, duplicate_prob)
        _, single_sim, singles = drive(sent, False, seed, duplicate_prob)
        assert [row(envelope) for envelope in fused] == [row(envelope) for envelope in singles]
        assert [envelope.dst for envelope in fused] == list(range(K)) * len(CALL_TIMES)
        # Duplicates, delivery times and queue sequence numbers all agree.
        assert queued(fused_sim) == queued(single_sim)
        assert any(envelope.dropped for envelope in fused)
        assert any(not envelope.dropped for envelope in fused)

    def test_every_message_stats_field_matches(self, sent, seed, duplicate_prob):
        fused_net, _, _ = drive(sent, True, seed, duplicate_prob)
        single_net, _, _ = drive(sent, False, seed, duplicate_prob)
        fused, single = fused_net.monitor.stats, single_net.monitor.stats
        assert counts(fused) == counts(single)
        assert fused.sent == K * len(CALL_TIMES)
        assert fused.sent_pre_ts == 2 * K
        assert fused.by_kind == {"phase1a": K * len(CALL_TIMES)}
        assert (fused.duplicated > 0) == (duplicate_prob > 0)

    @pytest.mark.parametrize("calls", range(3, len(CALL_TIMES) + 1))
    def test_rate_window_ending_on_a_call_excludes_all_its_sends(
        self, sent, seed, duplicate_prob, calls
    ):
        # A run ends at its last call's time; [TS, end) holds none of the
        # sends made at ``end`` (two whole calls when the run stops at TS + 0.5).
        call_times = CALL_TIMES[:calls]
        end = call_times[-1]
        fused_net, _, _ = drive(sent, True, seed, duplicate_prob, call_times)
        single_net, _, _ = drive(sent, False, seed, duplicate_prob, call_times)
        for window_end in (end, end + 1.0):
            rate = fused_net.monitor.post_ts_send_rate(TS, window_end)
            assert rate == single_net.monitor.post_ts_send_rate(TS, window_end)
            inside = sum(1 for time in call_times if TS <= time < window_end)
            assert rate == (None if window_end <= TS else K * inside / (window_end - TS))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_duplicate_takes_the_id_after_its_original(sent, seed):
    network, simulator, fused = drive(sent, True, seed, duplicate_prob=1.0)
    queued_by_id = {
        args[2]: delivery(time, action, args) for time, _, action, args in simulator._events._heap
    }
    next_id = 0
    for original in fused:
        assert original.msg_id == next_id
        next_id += 1
        if original.dropped:
            continue
        assert queued_by_id[original.msg_id] == delivery_of(original)
        # Under duplicate_prob = 1.0 every pushed original is copied; the copy
        # takes the next id even when its own fate drops it.
        copy = queued_by_id.get(next_id)
        if copy is not None:
            assert copy[:3] == (original.message, original.src, original.dst)
        next_id += 1
    assert next_id == network._next_msg_id
    stats = network.monitor.stats
    pushed = sum(not envelope.dropped for envelope in fused)
    assert stats.duplicated == pushed
    # ``dropped`` counts lost copies too: every copy not in the queue was lost
    # (seeds 2 and 3 lose some).
    lost_copies = stats.duplicated - (len(queued_by_id) - pushed)
    assert lost_copies >= 0
    assert stats.dropped == len(fused) - pushed + lost_copies


def test_a_call_to_no_destination_counts_nothing(sent):
    # A one-process run's broadcast to everyone else reaches the network empty.
    network, simulator = make_network(1)
    simulator._time = TS + 1.0
    network.send(Phase1a(mbal=1), SENDER, ())
    assert sent == []
    assert counts(network.monitor.stats) == counts(MessageStats())
    assert network._next_msg_id == 0


class TestThroughTheProcessContext:
    def test_broadcast_is_one_call_in_pid_order(self, monkeypatch):
        calls = []
        send = Network.send

        def counting_send(self, message, src, dsts):
            calls.append((src, tuple(dsts)))
            send(self, message, src, dsts)

        monkeypatch.setattr(Network, "send", counting_send)
        network, simulator = make_network(1)
        ctx = simulator.nodes[SENDER].process.ctx
        ctx.broadcast(Phase1a(mbal=1))
        ctx.broadcast(Phase1a(mbal=2), include_self=False)
        ctx.send(Phase1a(mbal=3), 4)
        assert calls == [
            (SENDER, tuple(range(K))),
            (SENDER, tuple(pid for pid in range(K) if pid != SENDER)),
            (SENDER, (4,)),
        ]
        assert network.monitor.stats.sent == K + (K - 1) + 1
        assert network.monitor.stats.sent_pre_ts == network.monitor.stats.sent

    def test_a_crashed_node_sends_and_broadcasts_nothing(self, monkeypatch):
        sent = capture_sent_envelopes(monkeypatch)
        network, simulator = make_network(1)
        ctx = simulator.nodes[SENDER].process.ctx
        ctx.broadcast(Phase1a(mbal=1))
        before = counts(network.monitor.stats)
        simulator.crash(SENDER)
        ctx.broadcast(Phase1a(mbal=2))
        ctx.broadcast(Phase1a(mbal=3), include_self=False)
        ctx.send(Phase1a(mbal=4), 0)
        assert [envelope.message.mbal for envelope in sent] == [1] * K
        assert counts(network.monitor.stats) == before
        assert network._next_msg_id == K + before["duplicated"]
