"""ShardedEngine semantics: equivalence with a single engine, per-shard
group commit, fleet recovery, and aggregated accounting."""

import random

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.faults import CrashError, FaultInjector, FaultPlan
from repro.hardware import Machine
from repro.sharding import ShardedEngine

TREE_CONFIG = BwTreeConfig(segment_bytes=1 << 14)
TC_CONFIG = TcConfig(log_buffer_bytes=1 << 12)


def make_sharded(num_shards: int, sync: bool = False,
                 **kwargs) -> ShardedEngine:
    return ShardedEngine(
        num_shards,
        cores_per_shard=1,
        tree_config=TREE_CONFIG,
        tc_config=TcConfig(log_buffer_bytes=1 << 12, sync_commit=sync),
        **kwargs,
    )


def make_single() -> DeuteronomyEngine:
    return DeuteronomyEngine(
        Machine.paper_default(cores=1), TREE_CONFIG, TC_CONFIG,
    )


def random_ops(count: int, key_space: int, seed: int):
    """A deterministic mixed op stream over a small keyspace."""
    rng = random.Random(seed)
    ops = []
    for index in range(count):
        key = b"user%06d" % rng.randrange(key_space)
        roll = rng.random()
        if roll < 0.45:
            ops.append(("get", key, None))
        elif roll < 0.85:
            ops.append(("put", key, b"v%d" % index))
        else:
            ops.append(("delete", key, None))
    return ops


def puts(items):
    """``(key, value)`` items as a batch of puts."""
    return [("put", key, value) for key, value in items]


def run_stream(engine, ops, batch_size=16):
    results = []
    for start in range(0, len(ops), batch_size):
        results.extend(engine.apply_batch(ops[start:start + batch_size]))
    return results


class TestEquivalence:
    """For any op stream, the sharded fleet must match one engine."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_batched_stream_matches_single_engine(self, num_shards):
        ops = random_ops(400, key_space=60, seed=num_shards)
        single, sharded = make_single(), make_sharded(num_shards)
        single_results = run_stream(single, ops)
        sharded_results = run_stream(sharded, ops)
        assert sharded_results == single_results
        for index in range(60):
            key = b"user%06d" % index
            assert sharded.get(key) == single.get(key)

    def test_multi_api_matches_single_engine(self):
        items = [(b"k%03d" % (i % 40), b"v%d" % i) for i in range(120)]
        keys = [key for key, __ in items]
        single, sharded = make_single(), make_sharded(4)
        single.apply_batch(puts(items))
        sharded.apply_batch(puts(items))
        assert sharded.multi_get(keys) == single.multi_get(keys)
        dropped = [("delete", key, None) for key in keys[::3]]
        single.apply_batch(dropped)
        sharded.apply_batch(dropped)
        assert sharded.multi_get(keys) == single.multi_get(keys)

    def test_duplicate_keys_in_one_batch_last_wins(self):
        sharded = make_sharded(4)
        sharded.apply_batch(puts([(b"k", b"first"), (b"k", b"second"),
                                  (b"other", b"x"), (b"k", b"third")]))
        assert sharded.get(b"k") == b"third"

    def test_single_key_ops_route_consistently(self):
        sharded = make_sharded(4)
        sharded.put(b"k", b"v")
        assert sharded.get(b"k") == b"v"
        sharded.delete(b"k")
        assert sharded.get(b"k") is None

    def test_results_gather_in_input_order(self):
        sharded = make_sharded(8)
        items = [(b"key%04d" % index, b"v%d" % index)
                 for index in range(64)]
        sharded.apply_batch(puts(items))
        values = sharded.multi_get([key for key, __ in items])
        assert values == [value for __, value in items]


class TestShardIndependence:
    def test_ops_land_on_owning_shard_only(self):
        sharded = make_sharded(4)
        items = [(b"user%06d" % index, b"v") for index in range(200)]
        sharded.apply_batch(puts(items))
        for shard_id, shard in enumerate(sharded.shards):
            for key, __ in items:
                owner = sharded.shard_for(key)
                found = shard.get(key) is not None
                assert found == (owner == shard_id)

    def test_each_involved_shard_group_commits_once(self):
        sharded = make_sharded(4, sync=True)
        items = [(b"user%06d" % index, b"v" * 10) for index in range(64)]
        sharded.apply_batch(puts(items))
        for shard in sharded.shards:
            commits = shard.tc.counters.get("tc.commits")
            if commits:
                # One grouped append + one flush for the whole sub-batch.
                assert shard.tc.log.batch_appends == 1
                assert shard.tc.log.flushes == 1

    def test_redo_records_stay_on_owning_shards_log(self):
        sharded = make_sharded(4, sync=True)
        items = [(b"user%06d" % index, b"v") for index in range(80)]
        sharded.apply_batch(puts(items))
        for shard_id, shard in enumerate(sharded.shards):
            for record in shard.tc.log.durable_records:
                assert sharded.shard_for(record.key) == shard_id


class TestDispatchOrder:
    """Ascending shard id is the dispatch contract: a fleet-wide crash
    between sub-batches leaves exactly the lower-numbered shards
    applied, which is what lets the crash matrix name a fleet state as
    "(boundary, Nth hit)"."""

    @pytest.mark.parametrize("untouched,hit", [
        (None, 1), (None, 2), (None, 3), (None, 4),
        # A batch that skips shard 1: hits count touched shards only.
        (1, 1), (1, 2), (1, 3),
    ])
    def test_crash_at_boundary_hit_k_applies_first_k_minus_1_shards(
            self, untouched, hit):
        injector = FaultInjector(
            FaultPlan.crash_at("sharded.apply_batch.boundary", hit))

        def machine() -> Machine:
            shard_machine = Machine.paper_default(cores=1)
            shard_machine.faults = injector
            return shard_machine

        sharded = make_sharded(4, sync=True, machine_factory=machine)
        keys = [key for key in (b"user%06d" % i for i in range(64))
                if sharded.shard_for(key) != untouched]
        touched = sorted({sharded.shard_for(key) for key in keys})
        assert touched == [s for s in range(4) if s != untouched]

        with pytest.raises(CrashError):
            sharded.apply_batch([("put", key, b"v") for key in keys])

        applied = touched[:hit - 1]
        assert injector.hits("sharded.apply_batch.boundary") == hit
        for shard_id, shard in enumerate(sharded.shards):
            expected = 1 if shard_id in applied else 0
            assert shard.stats()["commits"] == expected
            assert shard.tc.log.flushes == expected


#: Batches whose good op routes to shard 0 and whose bad op to a later
#: shard (``b""`` hashes to shard 1 of 4), so a fleet that ran shards
#: before checking would already have run shard 0.
REJECTED_FLEET_BATCHES = {
    "apply_batch-unknown-kind": (
        lambda f, a, b: f.apply_batch([("put", a, b"new"),
                                       ("frob", b, None)]),
        ValueError),
    "apply_batch-int-value": (
        lambda f, a, b: f.apply_batch([("put", a, b"new"), ("put", b, 7)]),
        TypeError),
    "apply_batch-put-without-value": (
        lambda f, a, b: f.apply_batch([("put", a, b"new"),
                                       ("put", b, None)]),
        ValueError),
    "apply_batch-empty-key": (
        lambda f, a, b: f.apply_batch([("put", a, b"new"),
                                       ("get", b"", None)]),
        ValueError),
    "apply_batch-delete-empty-key": (
        lambda f, a, b: f.apply_batch([("delete", a, None),
                                       ("delete", b"", None)]),
        ValueError),
    "multi_get-empty-key": (
        lambda f, a, b: f.multi_get([a, b""]), ValueError),
}


@pytest.mark.parametrize("name", sorted(REJECTED_FLEET_BATCHES))
def test_a_rejected_fleet_batch_runs_on_no_shard(name):
    """Every op of a fleet batch is checked before any shard runs: a bad
    op refuses the whole batch, so no shard commits, bills or counts
    any of it."""
    batch, error = REJECTED_FLEET_BATCHES[name]
    fleet = make_sharded(4)
    assert fleet.shard_for(b"") == 1
    a, b = (next(key for key in (b"user%06d" % i for i in range(64))
                 if fleet.shard_for(key) == shard) for shard in (0, 2))
    fleet.apply_batch(puts([(a, b"old"), (b, b"old")]))

    def state():
        return ([(shard.machine.operations, shard.machine.cpu.busy_us,
                  shard.tc.counters.snapshot()) for shard in fleet.shards],
                fleet.counters.snapshot())

    before = state()
    with pytest.raises(error):
        batch(fleet, a, b)
    assert state() == before
    assert all(shard.tc._active == {} for shard in fleet.shards)
    assert fleet.multi_get([a, b]) == [b"old", b"old"]


def test_a_record_larger_than_a_shard_log_buffer_refuses_the_fleet_batch():
    """Every redo record of a fleet batch is checked against the shards'
    log buffers before any shard runs.  This batch once raised only on
    the big put's shard, after shard 0 had committed and logged ``k2``
    and ``k6``, which the live fleet then served."""
    fleet = make_sharded(4)   # 4 KiB log buffers
    ops = [("put", b"k%d" % index, b"v" * 100) for index in range(1, 9)]
    ops.insert(4, ("put", b"big", b"b" * 5000))

    def state():
        return ([(shard.machine.operations, shard.machine.cpu.busy_us,
                  shard.tc.counters.snapshot(), shard.tc._next_txn_id,
                  shard.tc.log.appended_records) for shard in fleet.shards],
                fleet.counters.snapshot())

    before = state()
    with pytest.raises(ValueError, match="exceeds buffer size 4096"):
        fleet.apply_batch(ops)
    assert state() == before
    assert fleet.multi_get([key for __, key, __ in ops]) == [None] * 9


class TestFleetRecovery:
    def test_recover_matches_single_engine_recovery(self):
        ops = random_ops(300, key_space=40, seed=7)
        single, sharded = make_single(), make_sharded(4)
        run_stream(single, ops)
        run_stream(sharded, ops)
        single.checkpoint()
        sharded.checkpoint()
        single_recovered = DeuteronomyEngine.recover(single)
        sharded_recovered = ShardedEngine.recover(sharded)
        for index in range(40):
            key = b"user%06d" % index
            assert sharded_recovered.get(key) == single_recovered.get(key)

    def test_post_checkpoint_writes_lost_consistently(self):
        sharded = make_sharded(4)
        sharded.apply_batch(puts((b"user%06d" % i, b"kept")
                                 for i in range(40)))
        sharded.checkpoint()
        sharded.apply_batch(puts((b"user%06d" % i, b"lost")
                                 for i in range(40)))
        recovered = ShardedEngine.recover(sharded)
        for index in range(40):
            assert recovered.get(b"user%06d" % index) == b"kept"

    def test_recovered_fleet_routes_identically(self):
        sharded = make_sharded(8)
        keys = [b"user%06d" % index for index in range(100)]
        sharded.apply_batch(puts((key, b"v") for key in keys))
        sharded.checkpoint()
        recovered = ShardedEngine.recover(sharded)
        for key in keys:
            assert recovered.shard_for(key) == sharded.shard_for(key)
            assert recovered.get(key) == b"v"

    def test_double_fleet_recovery_is_idempotent(self):
        sharded = make_sharded(2)
        sharded.put(b"k", b"v")
        sharded.checkpoint()
        first = ShardedEngine.recover(sharded)
        first.put(b"new", b"resident")
        again = ShardedEngine.recover(sharded)
        assert again is first
        assert first.get(b"new") == b"resident"

    def test_recovered_fleet_accepts_new_batches(self):
        sharded = make_sharded(4)
        sharded.apply_batch(puts((b"user%06d" % i, b"old")
                                 for i in range(30)))
        sharded.checkpoint()
        recovered = ShardedEngine.recover(sharded)
        recovered.apply_batch(puts((b"user%06d" % i, b"new")
                                   for i in range(30)))
        assert all(recovered.get(b"user%06d" % i) == b"new"
                   for i in range(30))


#: The statistic names e2e, ``Run.result()`` and ``BENCH_engine.json``
#: read: a rename or a dropped row must show up here, not downstream.
STAT_NAMES = frozenset({
    "operations", "core_seconds", "elapsed_seconds", "ssd_busy_seconds",
    "ssd_ios", "dram_bytes", "tc_dram_bytes", "commits", "aborts", "reads",
    "dc_reads", "tc_hit_rate", "read_cache_hits", "read_cache_misses",
    "read_cache_hit_rate", "record_cache_hits", "record_cache_misses",
    "record_cache_hit_rate", "record_cache_gc_relocations",
    "record_heap_bytes", "page_cache_touches", "page_cache_fetches",
    "page_cache_hit_rate", "page_cache_demotions", "page_cache_promotions",
    "read_cache_demotions", "read_cache_promotions", "tier_resident_bytes",
    "log_flushes", "log_batch_appends", "log_device_writes",
    "log_device_bytes", "commit_epochs", "commit_wait_us",
    "commit_futures_resolved",
})


class TestAggregatedStats:
    def test_stat_names_are_pinned(self):
        assert len(STAT_NAMES) == 35
        assert make_single().stats().keys() == STAT_NAMES
        stats = make_sharded(2).stats()
        assert stats["fleet"].keys() == STAT_NAMES
        assert stats.keys() == {"num_shards", "log_topology", "routed_ops",
                                "routed_batches", "fleet", "per_shard"}

    def test_fleet_sums_additive_counters(self):
        """Fleet totals against the live shard components, not against
        the per-shard dicts the fleet itself was folded from."""
        sharded = make_sharded(4)
        run_stream(sharded, random_ops(200, key_space=30, seed=3))
        stats = sharded.stats()
        assert (stats["routed_ops"], stats["routed_batches"]) == (200, 13)
        fleet = stats["fleet"]
        machines = [shard.machine for shard in sharded.shards]
        assert fleet["core_seconds"] == sum(
            m.cpu.busy_seconds for m in machines) > 0.0
        assert fleet["ssd_ios"] == sum(m.ssd.total_ios for m in machines)
        assert fleet["dram_bytes"] == sum(
            m.dram.current_bytes for m in machines) > 0
        assert fleet["operations"] == sum(
            m.operations for m in machines) > 0
        assert fleet["commits"] == sum(
            shard.tc.counters.get("tc.commits")
            for shard in sharded.shards) > 0

    def test_fleet_elapsed_is_slowest_shard(self):
        sharded = make_sharded(4)
        run_stream(sharded, random_ops(200, key_space=30, seed=4))
        stats = sharded.stats()
        assert stats["fleet"]["elapsed_seconds"] == pytest.approx(
            max(s["elapsed_seconds"] for s in stats["per_shard"]))

    def test_rates_rederived_from_sums(self):
        """Rate of the sums, not mean of the rates: shard 0 only hits on
        heavy traffic, shard 1 only misses on light traffic."""
        sharded = ShardedEngine(
            2, cores_per_shard=1, tree_config=TREE_CONFIG,
            tc_config=TcConfig(record_cache=True))
        for shard, hits, misses in zip(sharded.shards, (90, 0), (0, 10)):
            shard.tc.counters.add("tc.reads", hits + misses)
            shard.tc.counters.add("tc.dc_reads", misses)
            shard.tc.read_cache.hits = shard.tc.records.hits = hits
            shard.tc.read_cache.misses = shard.tc.records.misses = misses
            shard.dc.cache.stats.touches = hits + misses
            shard.dc.cache.stats.fetches = misses
        stats = sharded.stats()
        for rate in ("tc_hit_rate", "read_cache_hit_rate",
                     "record_cache_hit_rate", "page_cache_hit_rate"):
            assert [shard[rate] for shard in stats["per_shard"]] == [1.0, 0.0]
            assert stats["fleet"][rate] == pytest.approx(0.9)

    def test_every_shard_read_cache_earns_hits(self):
        """The router must not bypass any shard's read cache.

        Bulk-loaded keys are in the DC only (no versions), so a first
        read populates each shard's read cache and a re-read must hit it
        — on *every* shard, not just in the fleet aggregate (BENCH v4
        showed a fleet hit rate frozen across shard counts, which a
        single hot shard could fake).
        """
        sharded = make_sharded(4)
        keys = [b"user%06d" % index for index in range(64)]
        sharded.bulk_load([(key, b"v") for key in keys])
        for __ in range(2):
            sharded.multi_get(keys)
        stats = sharded.stats()
        for index, shard in enumerate(stats["per_shard"]):
            assert shard["read_cache_hits"] > 0, f"shard {index} never hit"
            assert shard["read_cache_hit_rate"] > 0.0

    def test_router_work_charged_to_shard_machines(self):
        sharded = make_sharded(2)
        sharded.apply_batch(puts((b"user%06d" % i, b"v") for i in range(50)))
        total_router_us = sum(
            shard.machine.cpu.counters.get("cpu_us.router")
            for shard in sharded.shards
        )
        assert total_router_us > 0


class TestConstruction:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedEngine(0)

    def test_bulk_load_partitions_and_counts(self):
        sharded = make_sharded(4)
        items = [(b"user%06d" % index, b"v%d" % index)
                 for index in range(200)]
        assert sharded.bulk_load(items) == 200
        for key, value in items:
            assert sharded.get(key) == value

    def test_shard_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(3, _shards=[make_single()])
