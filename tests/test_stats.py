"""Unit tests for the statistics helpers (`repro.analysis.stats`)."""

import pytest

from repro.analysis.stats import Summary, percentile, summarize
from repro.errors import ConfigurationError


class TestPercentile:
    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 5.0

    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([], 0.5)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 1.5)


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([2.0, 4.0, 6.0, 8.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(5.0)
        assert summary.minimum == 2.0
        assert summary.maximum == 8.0
        assert summary.median == pytest.approx(5.0)

    def test_single_sample_has_zero_std(self):
        summary = summarize([3.0])
        assert summary.std == 0.0
        assert summary.p95 == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_describe_mentions_fields(self):
        text = summarize([1.0, 2.0]).describe()
        for token in ("mean=", "std=", "min=", "median=", "p95=", "max="):
            assert token in text

    def test_accepts_ints(self):
        assert summarize([1, 2, 3]).mean == pytest.approx(2.0)


class TestSummaryDataclass:
    def test_is_frozen(self):
        summary = Summary(count=1, mean=1.0, std=0.0, minimum=1.0, median=1.0, p95=1.0, maximum=1.0)
        with pytest.raises(AttributeError):
            summary.mean = 2.0
