"""Tests for the sampled time series."""

from repro.obs.sampler import TimeSeries


class TestTimeSeries:
    def test_empty(self):
        series = TimeSeries("x")
        assert series.peak == 0.0
        assert series.final == 0.0
        assert series.values() == []

    def test_peak_and_final(self):
        series = TimeSeries("x", [(0, 1.0), (50, 5.0), (100, 2.0)])
        assert series.peak == 5.0
        assert series.final == 2.0
