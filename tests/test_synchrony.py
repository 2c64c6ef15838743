"""Unit tests for the eventual-synchrony model (`repro.net.synchrony`)."""

import pytest

from repro.core.messages import Phase1a
from repro.errors import ConfigurationError
from repro.net.adversary import Adversary
from repro.net.message import Envelope, Era
from repro.net.synchrony import EventualSynchrony
from repro.sim.rng import SeededRng
from tests.helpers import build_adversary


def benign_model(ts: float, delta: float) -> EventualSynchrony:
    return EventualSynchrony(ts=ts, delta=delta, adversary=build_adversary("benign", delta=delta))


def envelope(send_time: float, era: Era):
    return Envelope(message=Phase1a(mbal=0), src=0, dst=1, send_time=send_time, era=era)


class TestEra:
    def test_era_split_at_ts(self):
        model = benign_model(ts=10.0, delta=1.0)
        assert model.era(9.999) is Era.PRE
        assert model.era(10.0) is Era.POST
        assert model.era(11.0) is Era.POST

    def test_ts_zero_means_always_post(self):
        model = benign_model(ts=0.0, delta=1.0)
        assert model.era(0.0) is Era.POST


class TestPostStabilizationBound:
    def test_post_ts_messages_delivered_within_delta(self):
        model = benign_model(ts=5.0, delta=2.0)
        rng = SeededRng(0)
        for _ in range(100):
            when = model.fate(envelope(6.0, Era.POST), now=6.0, rng=rng)
            assert when is not None
            assert 6.0 < when <= 8.0

    def test_adversary_cannot_exceed_delta_after_ts(self):
        class SlowAdversary(Adversary):
            def pre_ts_fate(self, env, now, rng):
                return None

            def post_ts_delay(self, env, now, rng):
                return 100.0  # tries to break the bound

        model = EventualSynchrony(ts=0.0, delta=1.0, adversary=SlowAdversary())
        when = model.fate(envelope(3.0, Era.POST), now=3.0, rng=SeededRng(1))
        assert when == pytest.approx(4.0)

    def test_adversary_post_delay_clamped_to_non_negative(self):
        class NegativeAdversary(Adversary):
            def pre_ts_fate(self, env, now, rng):
                return None

            def post_ts_delay(self, env, now, rng):
                return -5.0

        model = EventualSynchrony(ts=0.0, delta=1.0, adversary=NegativeAdversary())
        when = model.fate(envelope(3.0, Era.POST), now=3.0, rng=SeededRng(1))
        assert when == pytest.approx(3.0)

    def test_post_ts_delays_have_a_tenth_delta_floor(self):
        model = benign_model(ts=0.0, delta=2.0)
        rng = SeededRng(4)
        delays = [model.fate(envelope(2.0, Era.POST), now=2.0, rng=rng) - 2.0
                  for _ in range(200)]
        assert all(0.2 <= delay <= 2.0 for delay in delays)
        assert min(delays) < 0.4 and max(delays) > 1.8


class TestPreStabilizationFate:
    def test_pre_ts_fate_delegates_to_adversary(self):
        model = EventualSynchrony(ts=10.0, delta=1.0, adversary=build_adversary("drop-all"))
        assert model.fate(envelope(1.0, Era.PRE), now=1.0, rng=SeededRng(0)) is None

    def test_adversary_cannot_deliver_in_the_past(self):
        class TimeTravelAdversary(Adversary):
            def pre_ts_fate(self, env, now, rng):
                return now - 1.0

        model = EventualSynchrony(ts=10.0, delta=1.0, adversary=TimeTravelAdversary())
        with pytest.raises(ConfigurationError):
            model.fate(envelope(5.0, Era.PRE), now=5.0, rng=SeededRng(0))


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
