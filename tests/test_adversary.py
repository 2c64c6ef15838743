"""Unit tests for pre-stabilization adversaries (`repro.net.adversary`)."""

import pytest

from repro.core.messages import Phase1a
from repro.errors import ConfigurationError
from repro.net.adversary import (
    BenignAdversary,
    DropAllAdversary,
    PartitionAdversary,
    RandomChaosAdversary,
    ScriptedAdversary,
)
from repro.net.message import Envelope, Era
from repro.net.partition import PartitionSpec
from repro.sim.rng import SeededRng


def make_envelope(src=0, dst=1, send_time=1.0):
    return Envelope(message=Phase1a(mbal=0), src=src, dst=dst, send_time=send_time, era=Era.PRE)


class TestBenignAdversary:
    def test_delivers_within_delta(self):
        adversary = BenignAdversary(delta=2.0)
        rng = SeededRng(0)
        for _ in range(50):
            when = adversary.pre_ts_fate(make_envelope(send_time=5.0), now=5.0, rng=rng)
            assert when is not None
            assert 5.0 < when <= 7.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BenignAdversary(delta=0.0)
        with pytest.raises(ConfigurationError):
            BenignAdversary(delta=1.0, min_delay_fraction=2.0)


class TestDropAllAdversary:
    def test_drops_everything(self):
        adversary = DropAllAdversary()
        rng = SeededRng(0)
        assert all(
            adversary.pre_ts_fate(make_envelope(), now=1.0, rng=rng) is None for _ in range(20)
        )

    def test_no_duplication(self):
        assert DropAllAdversary().duplicate_prob == 0.0


class TestRandomChaosAdversary:
    def test_drop_probability_one_drops_everything(self):
        adversary = RandomChaosAdversary(ts=10.0, delta=1.0, drop_probability=1.0)
        rng = SeededRng(1)
        assert all(
            adversary.pre_ts_fate(make_envelope(), now=1.0, rng=rng) is None for _ in range(20)
        )

    def test_defer_probability_one_defers_past_ts(self):
        adversary = RandomChaosAdversary(
            ts=10.0, delta=1.0, drop_probability=0.0, defer_probability=1.0, max_defer=3.0
        )
        rng = SeededRng(2)
        for _ in range(50):
            when = adversary.pre_ts_fate(make_envelope(send_time=1.0), now=1.0, rng=rng)
            assert when is not None
            assert 10.0 <= when <= 13.0

    def test_surviving_messages_delayed_within_factor(self):
        adversary = RandomChaosAdversary(
            ts=10.0, delta=1.0, drop_probability=0.0, defer_probability=0.0, max_delay_factor=2.0
        )
        rng = SeededRng(3)
        for _ in range(50):
            when = adversary.pre_ts_fate(make_envelope(send_time=4.0), now=4.0, rng=rng)
            assert when is not None
            assert 4.0 < when <= 6.0

    def test_duplicate_probability_passthrough(self):
        adversary = RandomChaosAdversary(ts=1.0, delta=1.0, duplicate_prob=0.25)
        assert adversary.duplicate_prob == 0.25

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RandomChaosAdversary(ts=1.0, delta=1.0, drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            RandomChaosAdversary(ts=-1.0, delta=1.0)
        with pytest.raises(ConfigurationError):
            RandomChaosAdversary(ts=1.0, delta=0.0)


class TestPartitionAdversary:
    def test_intra_group_delivered_cross_group_dropped(self):
        spec = PartitionSpec.of([[0, 1], [2, 3]])
        adversary = PartitionAdversary(spec=spec, delta=1.0)
        rng = SeededRng(4)
        intra = adversary.pre_ts_fate(make_envelope(src=0, dst=1, send_time=2.0), 2.0, rng)
        cross = adversary.pre_ts_fate(make_envelope(src=0, dst=2, send_time=2.0), 2.0, rng)
        assert intra is not None and intra > 2.0
        assert cross is None

    def test_leak_probability_one_always_leaks(self):
        spec = PartitionSpec.of([[0], [1]])
        adversary = PartitionAdversary(spec=spec, delta=1.0, leak_probability=1.0)
        rng = SeededRng(5)
        when = adversary.pre_ts_fate(make_envelope(src=0, dst=1, send_time=0.0), 0.0, rng)
        assert when is not None

    def test_validation(self):
        spec = PartitionSpec.of([[0], [1]])
        with pytest.raises(ConfigurationError):
            PartitionAdversary(spec=spec, delta=0.0)
        with pytest.raises(ConfigurationError):
            PartitionAdversary(spec=spec, delta=1.0, leak_probability=2.0)


class TestWorstCaseDelayAdversary:
    def test_post_ts_delay_is_essentially_delta(self):
        from repro.net.adversary import WorstCaseDelayAdversary

        adversary = WorstCaseDelayAdversary(delta=2.0, jitter=0.01)
        rng = SeededRng(7)
        for _ in range(30):
            delay = adversary.post_ts_delay(make_envelope(), now=5.0, rng=rng)
            assert 2.0 * 0.99 <= delay <= 2.0

    def test_zero_jitter_is_exactly_delta(self):
        from repro.net.adversary import WorstCaseDelayAdversary

        adversary = WorstCaseDelayAdversary(delta=1.5, jitter=0.0)
        assert adversary.post_ts_delay(make_envelope(), 0.0, SeededRng(0)) == 1.5

    def test_pre_ts_behaviour_delegates(self):
        from repro.net.adversary import WorstCaseDelayAdversary

        adversary = WorstCaseDelayAdversary(delta=1.0, pre_ts=BenignAdversary(delta=1.0))
        when = adversary.pre_ts_fate(make_envelope(send_time=1.0), 1.0, SeededRng(1))
        assert when is not None
        dropping = WorstCaseDelayAdversary(delta=1.0)
        assert dropping.pre_ts_fate(make_envelope(), 1.0, SeededRng(1)) is None

    def test_duplicate_prob_comes_from_the_pre_ts_adversary(self):
        from repro.net.adversary import WorstCaseDelayAdversary

        chaos = RandomChaosAdversary(ts=1.0, delta=1.0, duplicate_prob=0.25)
        assert WorstCaseDelayAdversary(delta=1.0, pre_ts=chaos).duplicate_prob == 0.25
        assert WorstCaseDelayAdversary(delta=1.0).duplicate_prob == 0.0

    def test_validation(self):
        from repro.net.adversary import WorstCaseDelayAdversary

        with pytest.raises(ConfigurationError):
            WorstCaseDelayAdversary(delta=0.0)
        with pytest.raises(ConfigurationError):
            WorstCaseDelayAdversary(delta=1.0, jitter=1.5)


class TestScriptedAdversary:
    def test_script_controls_fate(self):
        adversary = ScriptedAdversary(script=lambda env, now, rng: now + 42.0)
        rng = SeededRng(6)
        assert adversary.pre_ts_fate(make_envelope(), 1.0, rng) == 43.0

    def test_script_can_drop(self):
        adversary = ScriptedAdversary(script=lambda env, now, rng: None)
        assert adversary.pre_ts_fate(make_envelope(), 1.0, SeededRng(0)) is None

    def test_pass_defers_to_fallback(self):
        adversary = ScriptedAdversary(
            script=lambda env, now, rng: ScriptedAdversary.PASS,
            fallback=BenignAdversary(delta=1.0),
        )
        when = adversary.pre_ts_fate(make_envelope(send_time=3.0), 3.0, SeededRng(1))
        assert when is not None and 3.0 < when <= 4.0

    def test_exhausted_script_falls_through_to_fallback(self):
        # A finite script that hands out two delivery times and then runs
        # dry: the exhausted script must keep answering (with PASS), and the
        # fallback takes over for the rest of the run.
        fates = [5.0, 6.0]

        def script(envelope, now, rng):
            if fates:
                return fates.pop(0)
            return ScriptedAdversary.PASS

        adversary = ScriptedAdversary(script=script)  # fallback drops everything
        rng = SeededRng(2)
        assert adversary.pre_ts_fate(make_envelope(), 1.0, rng) == 5.0
        assert adversary.pre_ts_fate(make_envelope(), 1.0, rng) == 6.0
        for _ in range(5):  # exhausted: DropAll fallback from here on
            assert adversary.pre_ts_fate(make_envelope(), 1.0, rng) is None

    def test_buggy_script_is_diagnosable_mid_run(self):
        # A script that schedules delivery in the past surfaces through the
        # shared validation helper with the envelope named in the message.
        from repro.errors import ConfigurationError
        from repro.net.synchrony import EventualSynchrony

        model = EventualSynchrony(
            ts=10.0, delta=1.0, adversary=ScriptedAdversary(script=lambda e, now, rng: now - 1.0)
        )
        envelope = make_envelope(src=2, dst=4, send_time=3.0)
        with pytest.raises(ConfigurationError) as exc_info:
            model.fate(envelope, 3.0, SeededRng(0))
        message = str(exc_info.value)
        assert "p2->p4" in message
        assert f"#{envelope.msg_id}" in message
        assert "sent at 3" in message


class TestWorstCaseDelayAtExactlyTs:
    def test_message_sent_at_exactly_ts_is_post_era_and_bounded(self):
        from repro.net.adversary import WorstCaseDelayAdversary
        from repro.net.synchrony import EventualSynchrony

        ts, delta = 10.0, 2.0
        model = EventualSynchrony(
            ts=ts, delta=delta, adversary=WorstCaseDelayAdversary(delta=delta, jitter=0.0)
        )
        # The boundary send belongs to the post-stabilization era ...
        assert model.era(ts) is Era.POST
        envelope = Envelope(
            message=Phase1a(mbal=0), src=0, dst=1, send_time=ts, era=model.era(ts)
        )
        when = model.fate(envelope, ts, SeededRng(0))
        # ... so the adversary's stretch is clamped to exactly delta: the
        # bound holds from the very first post-TS instant.
        assert when == ts + delta

    def test_just_before_ts_is_still_adversarial(self):
        from repro.net.adversary import WorstCaseDelayAdversary
        from repro.net.synchrony import EventualSynchrony

        ts, delta = 10.0, 2.0
        model = EventualSynchrony(ts=ts, delta=delta, adversary=WorstCaseDelayAdversary(delta))
        before = ts - 1e-9
        assert model.era(before) is Era.PRE
        envelope = make_envelope(send_time=before)
        assert model.fate(envelope, before, SeededRng(0)) is None  # pre-TS default drops


class TestHealedPartition:
    def test_process_cannot_sit_on_both_sides(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="two partition groups"):
            PartitionSpec.of([[0, 1], [1, 2]])

    def test_healed_gray_partition_connects_across_old_boundary(self):
        from repro.net.adversary import GrayPartitionAdversary

        spec = PartitionSpec.of([[0, 1], [2, 3]])
        adversary = GrayPartitionAdversary(
            spec=spec, ts=10.0, delta=1.0, heal_start=0.2, end_drop=0.0
        )
        rng = SeededRng(3)
        # While the partition is total, a process sees only its own side.
        early = [adversary.pre_ts_fate(make_envelope(src=0, dst=2, send_time=1.0), 1.0, rng)
                 for _ in range(20)]
        assert all(when is None for when in early)
        # Once healed, the same cross-boundary link delivers: the process
        # that was cut off from group 1 now talks to both sides.
        healed = [adversary.pre_ts_fate(make_envelope(src=0, dst=2, send_time=9.999), 9.999, rng)
                  for _ in range(20)]
        assert all(when is not None for when in healed)
        intra = adversary.pre_ts_fate(make_envelope(src=0, dst=1, send_time=9.999), 9.999, rng)
        assert intra is not None

    def test_gray_partition_validation(self):
        from repro.errors import ConfigurationError
        from repro.net.adversary import GrayPartitionAdversary

        spec = PartitionSpec.of([[0], [1]])
        with pytest.raises(ConfigurationError):
            GrayPartitionAdversary(spec=spec, ts=10.0, delta=0.0)
        with pytest.raises(ConfigurationError):
            GrayPartitionAdversary(spec=spec, ts=10.0, delta=1.0, heal_start=1.5)
        with pytest.raises(ConfigurationError, match="heals"):
            GrayPartitionAdversary(spec=spec, ts=10.0, delta=1.0, start_drop=0.2, end_drop=0.9)


class TestAsymmetricLinkValidation:
    def test_requires_hub_or_links(self):
        from repro.errors import ConfigurationError
        from repro.net.adversary import AsymmetricLinkAdversary

        with pytest.raises(ConfigurationError, match="hub or explicit links"):
            AsymmetricLinkAdversary(delta=1.0)
        with pytest.raises(ConfigurationError, match="direction"):
            AsymmetricLinkAdversary(delta=1.0, hub=0, direction="sideways")
        with pytest.raises(ConfigurationError, match="slow_factor"):
            AsymmetricLinkAdversary(delta=1.0, hub=0, slow_factor=0.5)

    def test_explicit_links_override_hub(self):
        from repro.net.adversary import AsymmetricLinkAdversary

        adversary = AsymmetricLinkAdversary(delta=1.0, hub=0, links=[(1, 2)])
        assert adversary.is_slow(1, 2)
        assert not adversary.is_slow(0, 1)  # hub ignored when links given

    def test_directionality(self):
        from repro.net.adversary import AsymmetricLinkAdversary

        to_hub = AsymmetricLinkAdversary(delta=1.0, hub=0, direction="to")
        assert to_hub.is_slow(3, 0) and not to_hub.is_slow(0, 3)
        from_hub = AsymmetricLinkAdversary(delta=1.0, hub=0, direction="from")
        assert from_hub.is_slow(0, 3) and not from_hub.is_slow(3, 0)
