"""Unit tests for drifting clocks (`repro.sim.clock`) and the session timer they drive."""

import pytest

from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.sim.clock import DriftingClock


class TestSessionTimerEnvelope:
    """``TimingParams`` programs the session timer for the drifting clocks."""

    def test_rejects_out_of_range_rho(self):
        with pytest.raises(ConfigurationError):
            TimingParams(rho=-0.1)
        with pytest.raises(ConfigurationError):
            TimingParams(rho=1.0)

    def test_session_timeout_lasts_four_delta_on_fastest_clock(self):
        params = TimingParams(delta=1.0, rho=0.05)
        # The fastest admissible clock (rate 1 + rho) turns the programmed
        # local duration into exactly the real minimum, 4δ.
        fastest = DriftingClock(rate=1.05)
        assert fastest.real_duration(params.session_timeout_local) == pytest.approx(4.0)

    def test_session_timeout_lasts_sigma_on_slowest_clock(self):
        params = TimingParams(delta=1.0, rho=0.05)
        slowest = DriftingClock(rate=0.95)
        assert slowest.real_duration(params.session_timeout_local) == pytest.approx(params.sigma)


class TestDriftingClock:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            DriftingClock(rate=0.0)
        with pytest.raises(ConfigurationError):
            DriftingClock(rate=-1.0)

    def test_local_time_advances_at_rate(self):
        clock = DriftingClock(rate=2.0)
        assert clock.local_time(0.0) == 0.0
        assert clock.local_time(1.0) == pytest.approx(2.0)
        assert clock.local_time(3.5) == pytest.approx(7.0)

    def test_real_duration_inverse_of_local_time(self):
        clock = DriftingClock(rate=1.25)
        local = clock.local_time(8.0)
        assert clock.real_duration(local) == pytest.approx(8.0)

    def test_fast_clock_shortens_real_waits(self):
        fast = DriftingClock(rate=1.1)
        slow = DriftingClock(rate=0.9)
        assert fast.real_duration(4.0) < 4.0 < slow.real_duration(4.0)

    def test_negative_durations_rejected(self):
        clock = DriftingClock()
        with pytest.raises(ConfigurationError):
            clock.real_duration(-1.0)

    def test_repr_shows_rate(self):
        assert "1.2" in repr(DriftingClock(rate=1.2))
