"""Unit tests for the shared timing constants (`repro.params`)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.params import TimingParams


class TestValidation:
    def test_defaults_are_valid(self):
        params = TimingParams()
        assert params.delta == 1.0
        assert params.rho == 0.0
        assert params.epsilon > 0

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ConfigurationError):
            TimingParams(delta=0.0)
        with pytest.raises(ConfigurationError):
            TimingParams(delta=-1.0)

    def test_rejects_bad_rho(self):
        with pytest.raises(ConfigurationError):
            TimingParams(rho=-0.01)
        with pytest.raises(ConfigurationError):
            TimingParams(rho=1.0)

    def test_rejects_non_positive_epsilon(self):
        with pytest.raises(ConfigurationError):
            TimingParams(epsilon=0.0)

    def test_rejects_session_timeout_below_four_delta(self):
        with pytest.raises(ConfigurationError):
            TimingParams(session_timeout_factor=3.9)

    @pytest.mark.parametrize("field", ["delta", "epsilon", "session_timeout_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TimingParams(**{field: value})

    def test_is_frozen(self):
        params = TimingParams()
        with pytest.raises(AttributeError):
            params.delta = 2.0


class TestDerivedQuantities:
    def test_session_timeout_minimum_is_four_delta(self):
        params = TimingParams(delta=2.0)
        assert params.session_timeout_real_min == pytest.approx(8.0)

    def test_session_timeout_local_inflated_by_rho(self):
        params = TimingParams(delta=1.0, rho=0.05)
        assert params.session_timeout_local == pytest.approx(4.0 * 1.05)

    def test_sigma_is_worst_case_expiry(self):
        params = TimingParams(delta=1.0, rho=0.05)
        assert params.sigma == pytest.approx(4.0 * 1.05 / 0.95)

    def test_sigma_equals_minimum_without_drift(self):
        params = TimingParams(delta=1.0, rho=0.0)
        assert params.sigma == pytest.approx(4.0)

    def test_tau_is_max_of_two_terms(self):
        # With a tiny epsilon, sigma dominates.
        small_eps = TimingParams(delta=1.0, rho=0.0, epsilon=0.01)
        assert small_eps.tau == pytest.approx(small_eps.sigma)
        # With a huge epsilon, 2*delta + eps dominates.
        large_eps = TimingParams(delta=1.0, rho=0.0, epsilon=10.0)
        assert large_eps.tau == pytest.approx(12.0)

    def test_with_epsilon_returns_modified_copy(self):
        params = TimingParams(epsilon=0.1)
        other = params.with_epsilon(0.7)
        assert other.epsilon == 0.7
        assert params.epsilon == 0.1
        assert other.delta == params.delta

    def test_describe_mentions_all_constants(self):
        text = TimingParams().describe()
        for token in ("delta=", "rho=", "epsilon=", "sigma=", "tau="):
            assert token in text
