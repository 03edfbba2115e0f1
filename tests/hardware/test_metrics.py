"""CounterSet and Histogram behaviour."""

import pytest

from repro.hardware import CounterSet, Histogram


class TestCounterSet:
    def test_unknown_counter_reads_zero(self):
        assert CounterSet().get("nope") == 0.0

    def test_add_accumulates(self):
        counters = CounterSet()
        counters.add("io")
        counters.add("io", 2.5)
        assert counters.get("io") == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            CounterSet().add("io", -1.0)

    def test_rejects_nan_increment_and_adds_nothing(self):
        counters = CounterSet()
        counters.add("io", 2.0)
        with pytest.raises(ValueError):
            counters.add("io", float("nan"))
        with pytest.raises(ValueError):
            counters.add("new", float("nan"))
        assert counters.snapshot() == {"io": 2.0}

    def test_snapshot_is_a_copy(self):
        counters = CounterSet()
        counters.add("a", 1)
        snap = counters.snapshot()
        counters.add("a", 1)
        assert snap["a"] == 1.0
        assert counters.get("a") == 2.0

    def test_diff_against_snapshot(self):
        counters = CounterSet()
        counters.add("a", 1)
        snap = counters.snapshot()
        counters.add("a", 2)
        counters.add("b", 5)
        diff = counters.diff(snap)
        assert diff == {"a": 2.0, "b": 5.0}

    def test_diff_omits_unchanged(self):
        counters = CounterSet()
        counters.add("a", 1)
        assert counters.diff(counters.snapshot()) == {}

    def test_reset_clears(self):
        counters = CounterSet()
        counters.add("a", 1)
        counters.reset()
        assert counters.get("a") == 0.0

    def test_contains(self):
        counters = CounterSet()
        counters.add("a")
        assert "a" in counters
        assert "b" not in counters


class TestHistogram:
    def test_empty_histogram_reports_zeros(self):
        hist = Histogram("x")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_mean_and_total(self):
        hist = Histogram()
        hist.observe_many([1.0, 2.0, 3.0])
        assert hist.total == 6.0
        assert hist.mean == 2.0

    def test_min_max(self):
        hist = Histogram()
        hist.observe_many([5.0, 1.0, 9.0])
        assert hist.minimum == 1.0
        assert hist.maximum == 9.0

    def test_percentiles_exact(self):
        hist = Histogram()
        hist.observe_many(float(i) for i in range(1, 101))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0

    def test_percentile_unsorted_input(self):
        hist = Histogram()
        hist.observe_many([3.0, 1.0, 2.0])
        assert hist.percentile(100) == 3.0
        # Observing after sorting keeps correctness.
        hist.observe(0.5)
        assert hist.percentile(0) == 0.5

    def test_percentile_range_validation(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_reset(self):
        hist = Histogram()
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0
