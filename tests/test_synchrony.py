"""Unit tests for the eventual-synchrony model (`repro.net.synchrony`)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.adversary import Adversary
from repro.net.synchrony import EventualSynchrony
from repro.sim.rng import SeededRng
from tests.helpers import build_adversary


def benign_model(ts: float, delta: float) -> EventualSynchrony:
    return EventualSynchrony(ts=ts, delta=delta, adversary=build_adversary("benign", delta=delta))


def fate(model: EventualSynchrony, now: float, rng: SeededRng):
    """The fate of one message from p0 to p1 sent at ``now``."""
    targets, (when,) = model.fates(0, (1,), now, rng)
    assert targets == (1,)
    return when


class TestEra:
    """The era is decided by the send time: the adversary rules strictly before TS."""

    def test_era_split_at_ts(self):
        model = EventualSynchrony(ts=10.0, delta=1.0, adversary=build_adversary("drop-all"))
        assert fate(model, 9.999, SeededRng(0)) is None
        assert fate(model, 10.0, SeededRng(0)) is not None
        assert fate(model, 11.0, SeededRng(0)) is not None

    def test_ts_zero_means_always_post(self):
        model = EventualSynchrony(ts=0.0, delta=1.0, adversary=build_adversary("drop-all"))
        assert fate(model, 0.0, SeededRng(0)) is not None


class TestPostStabilizationBound:
    def test_post_ts_messages_delivered_within_delta(self):
        model = benign_model(ts=5.0, delta=2.0)
        rng = SeededRng(0)
        for _ in range(100):
            when = fate(model, 6.0, rng)
            assert when is not None
            assert 6.0 < when <= 8.0

    def test_adversary_cannot_exceed_delta_after_ts(self):
        class SlowAdversary(Adversary):
            def pre_ts_fates(self, src, dsts, now, rng):
                return [None] * len(dsts)

            def post_ts_delays(self, src, dsts, now, rng):
                return [100.0] * len(dsts)  # tries to break the bound

        model = EventualSynchrony(ts=0.0, delta=1.0, adversary=SlowAdversary())
        when = fate(model, 3.0, SeededRng(1))
        assert when == pytest.approx(4.0)

    def test_adversary_post_delay_clamped_to_non_negative(self):
        class NegativeAdversary(Adversary):
            def pre_ts_fates(self, src, dsts, now, rng):
                return [None] * len(dsts)

            def post_ts_delays(self, src, dsts, now, rng):
                return [-5.0] * len(dsts)

        model = EventualSynchrony(ts=0.0, delta=1.0, adversary=NegativeAdversary())
        when = fate(model, 3.0, SeededRng(1))
        assert when == pytest.approx(3.0)

    def test_post_ts_delays_have_a_tenth_delta_floor(self):
        model = benign_model(ts=0.0, delta=2.0)
        rng = SeededRng(4)
        delays = [fate(model, 2.0, rng) - 2.0 for _ in range(200)]
        assert all(0.2 <= delay <= 2.0 for delay in delays)
        assert min(delays) < 0.4 and max(delays) > 1.8


class TestPreStabilizationFate:
    def test_pre_ts_fate_delegates_to_adversary(self):
        model = EventualSynchrony(ts=10.0, delta=1.0, adversary=build_adversary("drop-all"))
        assert fate(model, 1.0, SeededRng(0)) is None

    def test_adversary_cannot_deliver_in_the_past(self):
        from repro.core.messages import Phase1a
        from repro.net.network import Network
        from tests.helpers import silent_simulator

        class TimeTravelAdversary(Adversary):
            def pre_ts_fates(self, src, dsts, now, rng):
                return [now - 1.0 for _ in dsts]

        model = EventualSynchrony(ts=10.0, delta=1.0, adversary=TimeTravelAdversary())
        network = Network(model, SeededRng(0, label="net"))
        silent_simulator(network)._time = 5.0
        with pytest.raises(ConfigurationError):
            network.send(Phase1a(mbal=0), 0, (1,))


class TestValidation:
    def test_rejects_bad_parameters(self):
        drop_all = build_adversary("drop-all")
        with pytest.raises(ConfigurationError):
            EventualSynchrony(ts=-1.0, delta=1.0, adversary=drop_all)
        with pytest.raises(ConfigurationError):
            EventualSynchrony(ts=0.0, delta=0.0, adversary=drop_all)

    def test_repr_names_adversary(self):
        model = EventualSynchrony(ts=1.0, delta=1.0, adversary=build_adversary("drop-all"))
        assert "DropAllAdversary" in repr(model)
