"""Unit tests for pre-stabilization adversaries (`repro.env.adversaries`), built from specs."""

import pytest

from repro.core.messages import Phase1a
from repro.env.spec import AdversarySpec
from repro.errors import ConfigurationError
from repro.net.adversary import Adversary
from repro.net.partition import PartitionSpec
from repro.sim.rng import SeededRng
from tests.helpers import build_adversary


def fate(adversary, src, dst, now, rng):
    """The pre-``TS`` fate of one message from ``src`` to ``dst`` sent at ``now``."""
    (when,) = adversary.pre_ts_fates(src, (dst,), now, rng)
    return when


class TestBenignAdversary:
    def test_delivers_within_delta(self):
        adversary = build_adversary("benign", delta=2.0)
        rng = SeededRng(0)
        for _ in range(50):
            when = fate(adversary, 0, 1, 5.0, rng)
            assert when is not None
            assert 5.0 < when <= 7.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_adversary("benign", delta=0.0)
        with pytest.raises(ConfigurationError):
            build_adversary("benign", {"min_delay_fraction": 2.0})


class TestDropAllAdversary:
    def test_drops_everything(self):
        adversary = build_adversary("drop-all")
        rng = SeededRng(0)
        assert all(
            fate(adversary, 0, 1, 1.0, rng) is None for _ in range(20)
        )

    def test_no_duplication(self):
        assert build_adversary("drop-all").duplicate_prob == 0.0


class TestRandomChaosAdversary:
    def test_drop_probability_one_drops_everything(self):
        adversary = build_adversary("random-chaos", {"drop_probability": 1.0})
        rng = SeededRng(1)
        assert all(
            fate(adversary, 0, 1, 1.0, rng) is None for _ in range(20)
        )

    def test_defer_probability_one_defers_past_ts(self):
        adversary = build_adversary(
            "random-chaos", {"drop_probability": 0.0, "defer_probability": 1.0, "max_defer_delta": 3.0}
        )
        rng = SeededRng(2)
        for _ in range(50):
            when = fate(adversary, 0, 1, 1.0, rng)
            assert when is not None
            assert 10.0 <= when <= 13.0

    def test_surviving_messages_delayed_within_factor(self):
        adversary = build_adversary(
            "random-chaos", {"drop_probability": 0.0, "defer_probability": 0.0, "max_delay_factor": 2.0}
        )
        rng = SeededRng(3)
        for _ in range(50):
            when = fate(adversary, 0, 1, 4.0, rng)
            assert when is not None
            assert 4.0 < when <= 6.0

    def test_duplicate_probability_passthrough(self):
        adversary = build_adversary("random-chaos", {"duplicate_prob": 0.25}, ts=1.0)
        assert adversary.duplicate_prob == 0.25

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            build_adversary("random-chaos", {"drop_probability": 1.5}, ts=1.0)
        with pytest.raises(ConfigurationError):
            build_adversary("random-chaos", ts=-1.0)
        with pytest.raises(ConfigurationError):
            build_adversary("random-chaos", ts=1.0, delta=0.0)


class TestPartitionAdversary:
    def test_intra_group_delivered_cross_group_dropped(self):
        groups = {"mode": "explicit", "groups": [[0, 1], [2, 3]]}
        adversary = build_adversary("partition", {"partition": groups})
        rng = SeededRng(4)
        intra = fate(adversary, 0, 1, 2.0, rng)
        cross = fate(adversary, 0, 2, 2.0, rng)
        assert intra is not None and intra > 2.0
        assert cross is None

    def test_leak_probability_one_always_leaks(self):
        groups = {"mode": "explicit", "groups": [[0], [1]]}
        adversary = build_adversary("partition", {"partition": groups, "leak_probability": 1.0})
        rng = SeededRng(5)
        when = fate(adversary, 0, 1, 0.0, rng)
        assert when is not None

    def test_validation(self):
        groups = {"mode": "explicit", "groups": [[0], [1]]}
        with pytest.raises(ConfigurationError):
            build_adversary("partition", {"partition": groups}, delta=0.0)
        with pytest.raises(ConfigurationError):
            build_adversary("partition", {"partition": groups, "leak_probability": 2.0})


class TestWorstCaseDelayAdversary:
    def test_post_ts_delay_is_essentially_delta(self):
        adversary = build_adversary("worst-case-delay", {"jitter": 0.01}, delta=2.0)
        rng = SeededRng(7)
        for _ in range(30):
            delay = adversary.post_ts_delays(0, (1,), 5.0, rng)[0]
            assert 2.0 * 0.99 <= delay <= 2.0

    def test_zero_jitter_is_exactly_delta(self):
        adversary = build_adversary("worst-case-delay", {"jitter": 0.0}, delta=1.5)
        assert adversary.post_ts_delays(0, (1,), 0.0, SeededRng(0))[0] == 1.5

    def test_pre_ts_behaviour_delegates(self):
        adversary = build_adversary("worst-case-delay", inner=AdversarySpec("benign"))
        when = fate(adversary, 0, 1, 1.0, SeededRng(1))
        assert when is not None
        dropping = build_adversary("worst-case-delay")
        assert fate(dropping, 0, 1, 1.0, SeededRng(1)) is None

    def test_duplicate_prob_comes_from_the_pre_ts_adversary(self):
        chaos = AdversarySpec("random-chaos", {"duplicate_prob": 0.25})
        assert build_adversary("worst-case-delay", inner=chaos, ts=1.0).duplicate_prob == 0.25
        assert build_adversary("worst-case-delay").duplicate_prob == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_adversary("worst-case-delay", delta=0.0)
        with pytest.raises(ConfigurationError):
            build_adversary("worst-case-delay", {"jitter": 1.5})


class _PastDeliveryAdversary(Adversary):
    """Mis-computes the pre-``TS`` delivery time to p4: 1.0 before now (others 1.0 after)."""

    def pre_ts_fates(self, src, dsts, now, rng):
        return [now - 1.0 if dst == 4 else now + 1.0 for dst in dsts]


class TestPastDeliveryGuard:
    def test_buggy_adversary_is_diagnosable_mid_run(self):
        # An adversary that schedules delivery in the past surfaces through the
        # shared validation helper with the envelope named in the message.
        from repro.errors import ConfigurationError
        from repro.net.network import Network
        from repro.net.synchrony import EventualSynchrony
        from tests.helpers import silent_simulator

        model = EventualSynchrony(ts=10.0, delta=1.0, adversary=_PastDeliveryAdversary())
        network = Network(model, SeededRng(0, label="net"))
        simulator = silent_simulator(network)
        simulator._time = 3.0
        with pytest.raises(ConfigurationError) as exc_info:
            network.send(Phase1a(mbal=0), 2, (3, 4, 0))
        message = str(exc_info.value)
        assert "p2->p4" in message
        assert "#1" in message
        assert "sent at 3" in message
        # The same text, byte for byte, as when the fate was asked per envelope.
        assert message == (
            "adversary scheduled delivery in the past (2 < now 3) "
            "for msg #1 (phase1a) p2->p4 sent at 3"
        )


class TestWorstCaseDelayAtExactlyTs:
    def test_message_sent_at_exactly_ts_is_post_era_and_bounded(self):
        from repro.net.synchrony import EventualSynchrony

        ts, delta = 10.0, 2.0
        model = EventualSynchrony(
            ts=ts, delta=delta,
            adversary=build_adversary("worst-case-delay", {"jitter": 0.0}, ts=ts, delta=delta),
        )
        # The boundary send belongs to the post-stabilization era, so the
        # adversary's stretch is clamped to exactly delta: the bound holds
        # from the very first post-TS instant.
        (when,) = model.fates(0, (1,), ts, SeededRng(0))[1]
        assert when == ts + delta

    def test_just_before_ts_is_still_adversarial(self):
        from repro.net.synchrony import EventualSynchrony

        ts, delta = 10.0, 2.0
        model = EventualSynchrony(
            ts=ts, delta=delta, adversary=build_adversary("worst-case-delay", ts=ts, delta=delta)
        )
        before = ts - 1e-9
        # pre-TS default drops
        assert model.fates(0, (1,), before, SeededRng(0)) == ((1,), [None])


class TestHealedPartition:
    def test_process_cannot_sit_on_both_sides(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="two partition groups"):
            PartitionSpec.of([[0, 1], [1, 2]])

    def test_healed_gray_partition_connects_across_old_boundary(self):
        groups = {"mode": "explicit", "groups": [[0, 1], [2, 3]]}
        adversary = build_adversary(
            "gray-partition", {"partition": groups, "heal_start": 0.2, "end_drop": 0.0}
        )
        rng = SeededRng(3)
        # While the partition is total, a process sees only its own side.
        early = [fate(adversary, 0, 2, 1.0, rng)
                 for _ in range(20)]
        assert all(when is None for when in early)
        # Once healed, the same cross-boundary link delivers: the process
        # that was cut off from group 1 now talks to both sides.
        healed = [fate(adversary, 0, 2, 9.999, rng)
                  for _ in range(20)]
        assert all(when is not None for when in healed)
        intra = fate(adversary, 0, 1, 9.999, rng)
        assert intra is not None

    def test_gray_partition_validation(self):
        from repro.errors import ConfigurationError

        groups = {"mode": "explicit", "groups": [[0], [1]]}
        with pytest.raises(ConfigurationError):
            build_adversary("gray-partition", {"partition": groups}, delta=0.0)
        with pytest.raises(ConfigurationError):
            build_adversary("gray-partition", {"partition": groups, "heal_start": 1.5})
        with pytest.raises(ConfigurationError, match="heals"):
            build_adversary(
                "gray-partition", {"partition": groups, "start_drop": 0.2, "end_drop": 0.9}
            )


class TestAsymmetricLinkValidation:
    def test_requires_hub_or_links(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="hub or explicit links"):
            build_adversary("asymmetric-link")
        with pytest.raises(ConfigurationError, match="direction"):
            build_adversary("asymmetric-link", {"hub": 0, "direction": "sideways"})
        with pytest.raises(ConfigurationError, match="slow_factor"):
            build_adversary("asymmetric-link", {"hub": 0, "slow_factor": 0.5})

    def test_explicit_links_override_hub(self):
        adversary = build_adversary("asymmetric-link", {"hub": 0, "links": [[1, 2]]})
        assert adversary.is_slow(1, 2)
        assert not adversary.is_slow(0, 1)  # hub ignored when links given

    def test_directionality(self):
        to_hub = build_adversary("asymmetric-link", {"hub": 0, "direction": "to"})
        assert to_hub.is_slow(3, 0) and not to_hub.is_slow(0, 3)
        from_hub = build_adversary("asymmetric-link", {"hub": 0, "direction": "from"})
        assert from_hub.is_slow(0, 3) and not from_hub.is_slow(3, 0)
