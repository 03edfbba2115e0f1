"""The metrics registry: the ``STATS`` table read over a window.

``stats_window`` folds two ``stats()`` snapshots into one row per
``STATS`` entry: counters subtract, levels and maxima read at the end,
ratios are re-read from the window's counts.  A bare engine passes its
flat dict, a fleet its ``fleet`` sums, so both report the same names.
"""

from __future__ import annotations

from repro.deuteronomy.engine import STATS, DeuteronomyEngine, stats_window
from repro.deuteronomy.tc import TcConfig
from repro.hardware.machine import Machine
from repro.sharding.engine import ShardedEngine

KINDS = {name: kind for name, kind, __ in STATS}


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


def _fleet() -> ShardedEngine:
    fleet = ShardedEngine(
        2, cores_per_shard=2, tc_config=TcConfig(sync_commit=True))
    fleet.bulk_load(_items(48))
    return fleet


class TestMetricsRegistry:
    def test_snapshot_and_delta(self):
        before = {name: 2.0 for name in KINDS}
        after = {name: 7.0 for name in KINDS}
        after["reads"], after["dc_reads"] = 10.0, 4.0
        window = stats_window(before, after)
        assert list(window) == list(KINDS)
        assert (window["reads"], window["dc_reads"]) == (8.0, 2.0)
        for name, kind in KINDS.items():
            if kind == "counter" and name not in ("reads", "dc_reads"):
                assert window[name] == 5.0, name
            elif kind in ("level", "max"):
                # Levels and maxima are read at the end of the window.
                assert window[name] == 7.0, name
        # 8 reads in the window, 2 of them reached the DC.
        assert window["tc_hit_rate"] == 0.75


class TestEngineRegistry:
    def test_counters_read_live_engine_accounting(self):
        machine = Machine.paper_default(cores=2)
        engine = DeuteronomyEngine(
            machine, tc_config=TcConfig(sync_commit=True))
        engine.dc.bulk_load(_items(32))
        machine.reset_accounting()
        before = engine.stats()
        for index in range(48):
            engine.get(b"k%04d" % (index % 32))
        stats = engine.stats()
        window = stats_window(before, stats)
        assert window["operations"] == stats["operations"] > 0
        assert window["core_seconds"] == stats["core_seconds"]
        assert window["reads"] == stats["reads"] == 48
        assert window["tc_hit_rate"] == stats["tc_hit_rate"]

    def test_delta_over_a_measured_window(self):
        engine = _small_engine(ops=12)
        before = engine.stats()
        for index in range(10):
            engine.get(b"k%04d" % (index % 32))
        window = stats_window(before, engine.stats())
        assert window["operations"] == 10.0
        assert window["reads"] == 10.0
        assert window["commits"] == 10.0


class TestFleetRegistry:
    def test_sums_match_per_shard_stats(self):
        fleet = _fleet()
        fleet.reset_accounting()
        before = fleet.stats()
        batch = [
            ("put", key, b"w" * 16) if index % 4 == 0
            else ("get", key, None)
            for index, (key, __) in enumerate(_items(48))
        ]
        fleet.apply_batch(batch)
        after = fleet.stats()
        window = stats_window(before["fleet"], after["fleet"])
        shard_windows = [
            stats_window(shard_before, shard_after)
            for shard_before, shard_after
            in zip(before["per_shard"], after["per_shard"])]
        for name, kind in KINDS.items():
            if kind == "counter":
                assert window[name] == sum(
                    shard[name] for shard in shard_windows), name
        assert window["reads"] == 36

    def test_resident_bytes_are_levels_not_deltas(self):
        """A read-only window grows no DRAM; the window must still
        report the resident level Eq. 5 prices, not the growth."""
        fleet = _fleet()
        fleet.multi_get([key for key, __ in _items(48)])
        before = fleet.stats()["fleet"]
        fleet.multi_get([key for key, __ in _items(48)])
        window = stats_window(before, fleet.stats()["fleet"])
        level = fleet.stats()["fleet"]["dram_bytes"]
        assert level > 0
        assert window["dram_bytes"] == level
        assert KINDS["dram_bytes"] == "level"

    def test_fleet_hit_rate_rederived_from_sums(self):
        """A window's rate describes the window, not the run so far."""
        fleet = _fleet()
        fleet.reset_accounting()
        keys = [key for key, __ in _items(32)]
        # Cold: every read reaches the DC.
        fleet.multi_get(keys)
        before = fleet.stats()["fleet"]
        assert before["tc_hit_rate"] == 0.0
        # Warm: every read is a read-cache hit.
        fleet.multi_get(keys)
        after = fleet.stats()["fleet"]
        window = stats_window(before, after)
        assert after["tc_hit_rate"] == 0.5
        assert window["tc_hit_rate"] == 1.0
