"""Ratios on empty accounting: 0.0, never ZeroDivisionError.

The repo-wide contract (documented in docs/ARCHITECTURE.md): every
rate/ratio reads as zero before any traffic — except
``LogStructuredStore.utilization``, which reads 1.0 (an empty store is
fully live).  These pins keep the audit from regressing: every ratio
row of ``STATS``, read off a freshly built engine and fleet and over an
empty window, exercises every rate at once.
"""

from __future__ import annotations

from repro.deuteronomy.engine import STATS, DeuteronomyEngine, stats_window
from repro.deuteronomy.tc import TcConfig
from repro.hardware.machine import Machine, RunSummary
from repro.hardware.metrics import Histogram
from repro.sharding.engine import ShardedEngine
from repro.storage.cache import CacheStats

RATIOS = [name for name, kind, __ in STATS if kind == "ratio"]


def fresh_engine() -> DeuteronomyEngine:
    engine = DeuteronomyEngine(
        Machine.paper_default(cores=2),
        tc_config=TcConfig(sync_commit=True))
    # Building the engine itself touches the page cache once (the root
    # page), so zero the stats to reach the untouched-division branch.
    engine.dc.cache.stats = CacheStats()
    return engine


def test_histogram_empty_reads_as_zero():
    histogram = Histogram("empty")
    assert histogram.count == 0
    assert histogram.mean == 0.0
    assert histogram.minimum == 0.0
    assert histogram.maximum == 0.0
    assert histogram.percentile(50) == 0.0
    assert histogram.percentile(99) == 0.0


def test_run_summary_with_zero_operations():
    summary = RunSummary(
        operations=0, cpu_busy_seconds=0.0, ssd_busy_seconds=0.0,
        cores=4, ssd_ios=0.0)
    assert summary.throughput_ops_per_sec == 0.0
    assert summary.core_us_per_op == 0.0
    assert summary.ios_per_op == 0.0


def test_fresh_engine_ratio_accessors():
    engine = fresh_engine()
    stats = engine.stats()
    assert RATIOS
    for name in RATIOS:
        assert stats[name] == 0.0, name
    # Nothing flushed yet: the store is all live bytes by definition.
    assert engine.dc.store.utilization() == 1.0


def test_fresh_engine_registry_snapshot_has_no_division_errors():
    """A window with no traffic in it re-reads every ratio from zero
    counts."""
    engine = fresh_engine()
    window = stats_window(engine.stats(), engine.stats())
    for name in RATIOS:
        assert window[name] == 0.0, name


def test_fresh_fleet_rates_read_as_zero():
    fleet = ShardedEngine(
        2, cores_per_shard=2, tc_config=TcConfig(sync_commit=True))
    for shard in fleet.shards:
        shard.dc.cache.stats = CacheStats()
    stats = fleet.stats()["fleet"]
    for name in RATIOS:
        assert stats[name] == 0.0, name
