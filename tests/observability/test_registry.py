"""Metrics registry: validation, snapshot/delta, fleet additivity."""

from __future__ import annotations

import pytest

from repro.deuteronomy.engine import STATS, DeuteronomyEngine
from repro.deuteronomy.tc import TcConfig
from repro.hardware.machine import Machine
from repro.hardware.metrics import Histogram
from repro.observability.registry import (
    MetricsRegistry,
    engine_registry,
    fleet_registry,
)
from repro.sharding.engine import ShardedEngine


def _items(count: int, width: int = 16):
    return [(b"k%04d" % index, b"v" * width) for index in range(count)]


def _small_engine(ops: int = 48) -> DeuteronomyEngine:
    machine = Machine.paper_default(cores=2)
    engine = DeuteronomyEngine(
        machine, tc_config=TcConfig(sync_commit=True))
    engine.dc.bulk_load(_items(32))
    machine.reset_accounting()
    for index in range(ops):
        key = b"k%04d" % (index % 32)
        if index % 3:
            engine.get(key)
        else:
            engine.put(key, b"w" * 16)
    return engine


class TestMetricsRegistry:
    def test_names_must_be_component_dotted(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="component.metric"):
            registry.register_counter("ops", lambda: 0.0)
        with pytest.raises(ValueError, match="component.metric"):
            registry.register_gauge("", lambda: 0.0)

    def test_duplicates_rejected_across_kinds(self):
        registry = MetricsRegistry()
        registry.register_counter("tc.commits", lambda: 1.0)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_gauge("tc.commits", lambda: 0.0)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_histogram(
                "tc.commits", lambda: Histogram("x"))

    def test_names_lists_every_kind_sorted(self):
        registry = MetricsRegistry()
        registry.register_gauge("b.level", lambda: 0.0)
        registry.register_counter("a.count", lambda: 0.0)
        registry.register_histogram("c.lat", lambda: Histogram("x"))
        assert registry.names == ["a.count", "b.level", "c.lat"]

    def test_snapshot_and_delta(self):
        state = {"count": 2.0, "level": 7.0}
        hist = Histogram("lat")
        hist.observe_many([1.0, 3.0])
        registry = MetricsRegistry()
        registry.register_counter("c.count", lambda: state["count"])
        registry.register_gauge("c.level", lambda: state["level"])
        registry.register_histogram("c.lat", lambda: hist)

        before = registry.snapshot()
        assert before["counters"] == {"c.count": 2.0}
        assert before["gauges"] == {"c.level": 7.0}
        lat = before["histograms"]["c.lat"]
        assert lat["count"] == 2.0 and lat["mean"] == 2.0

        state["count"] = 5.0
        state["level"] = 1.0
        delta = registry.delta(before)
        # Counters difference; gauges read at the end of the window.
        assert delta["counters"] == {"c.count": 3.0}
        assert delta["gauges"] == {"c.level": 1.0}

    def test_delta_tolerates_new_counters(self):
        registry = MetricsRegistry()
        registry.register_counter("c.count", lambda: 4.0)
        delta = registry.delta({"counters": {}})
        assert delta["counters"] == {"c.count": 4.0}


class TestEngineRegistry:
    def test_counters_read_live_engine_accounting(self):
        engine = _small_engine()
        registry = engine_registry(engine)
        stats = engine.stats()
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["machine.operations"] == stats["operations"]
        assert counters["machine.ssd_ios"] == stats["ssd_ios"]
        assert counters["tc.commits"] == stats["commits"]
        assert counters["tc.reads"] == stats["reads"]
        assert counters["page_cache.fetches"] == \
            stats["page_cache_fetches"]
        assert counters["recovery_log.flushes"] == stats["log_flushes"]
        latency = snapshot["histograms"]["machine.op_latency_us"]
        assert latency["count"] == \
            float(engine.machine.op_latencies.count)
        assert latency["count"] > 0.0
        assert 0.0 <= snapshot["gauges"]["tc.hit_rate"] <= 1.0

    def test_delta_over_a_measured_window(self):
        engine = _small_engine(ops=12)
        registry = engine_registry(engine)
        before = registry.snapshot()
        for index in range(10):
            engine.get(b"k%04d" % (index % 32))
        delta = registry.delta(before)
        assert delta["counters"]["machine.operations"] == 10.0
        assert delta["counters"]["tc.reads"] == 10.0


class TestFleetRegistry:
    def test_sums_match_per_shard_stats(self):
        fleet = ShardedEngine(
            2, cores_per_shard=2,
            tc_config=TcConfig(sync_commit=True))
        fleet.bulk_load(_items(48))
        fleet.reset_accounting()
        batch = [
            ("put", key, b"w" * 16) if index % 4 == 0
            else ("get", key, None)
            for index, (key, __) in enumerate(_items(48))
        ]
        fleet.apply_batch(batch)

        snapshot = fleet_registry(fleet).snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        fleet_stats = fleet.stats()
        for name, kind, __ in STATS:
            # Counters are the only rows a delta may subtract.
            table = counters if kind == "counter" else gauges
            assert table[f"fleet.{name}"] == \
                float(fleet_stats["fleet"][name]), name
        assert len(counters) + len(gauges) == len(STATS) + 3
        assert counters["fleet.routed_ops"] == \
            float(fleet_stats["routed_ops"])
        assert counters["fleet.routed_batches"] == \
            float(fleet_stats["routed_batches"])

    def test_resident_bytes_are_levels_not_deltas(self):
        """A read-only window grows no DRAM; the delta must still report
        the resident level Eq. 5 prices, not the growth."""
        fleet = ShardedEngine(
            2, cores_per_shard=2,
            tc_config=TcConfig(sync_commit=True))
        fleet.bulk_load(_items(48))
        fleet.multi_get([key for key, __ in _items(48)])
        registry = fleet_registry(fleet)
        before = registry.snapshot()
        fleet.multi_get([key for key, __ in _items(48)])
        delta = registry.delta(before)
        level = fleet.stats()["fleet"]["dram_bytes"]
        assert level > 0
        assert delta["gauges"]["fleet.dram_bytes"] == level
        assert "fleet.dram_bytes" not in delta["counters"]

    def test_fleet_hit_rate_rederived_from_sums(self):
        fleet = ShardedEngine(
            2, cores_per_shard=2,
            tc_config=TcConfig(sync_commit=True))
        registry = fleet_registry(fleet)
        # Empty fleet: 0.0, never a ZeroDivisionError.
        assert registry.snapshot()["gauges"]["fleet.tc_hit_rate"] == 0.0
        fleet.bulk_load(_items(32))
        fleet.reset_accounting()
        fleet.apply_batch([("get", key, None) for key, __ in _items(32)])
        rate = registry.snapshot()["gauges"]["fleet.tc_hit_rate"]
        assert rate == fleet.stats()["fleet"]["tc_hit_rate"]
