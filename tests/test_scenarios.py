"""repro.scenarios: the one build -> drive -> price recipe."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.deuteronomy.engine import DeuteronomyEngine
from repro.deuteronomy.tc import TcConfig
from repro.hardware.ssd import SsdSpec
from repro.scenarios import (
    ASYNC_COMMIT,
    SYNC_COMMIT,
    Scenario,
    batch_item,
    fleet_totals,
)
from repro.sharding.engine import ShardedEngine
from repro.workloads.ycsb import OpKind, WorkloadGenerator

SMALL = Scenario(seed=5, record_count=96, op_count=240)


class TestPrepare:
    def test_generator_order_is_load_then_measured(self):
        reference = WorkloadGenerator(SMALL.spec())
        loaded = dict(reference.load_items())
        expected = list(reference.operations(SMALL.op_count))
        run = SMALL.prepare()
        assert run.ops == expected
        assert all(run.engine.get(key) == value
                   for key, value in loaded.items())

    def test_window_starts_clean_but_state_is_kept(self):
        run = replace(SMALL, checkpoint=True).prepare()
        (machine,) = run.machines
        assert machine.cpu.busy_us == 0.0
        assert machine.ssd.total_ios == 0
        assert machine.operations == 0
        assert machine.dram.current_bytes > 0
        assert machine.ssd.stored_bytes > 0   # the checkpoint hit flash

    def test_zero_shards_is_a_bare_engine_and_one_is_a_fleet(self):
        bare = SMALL.prepare()
        assert isinstance(bare.engine, DeuteronomyEngine)
        assert bare.shards == [bare.engine]
        fleet = replace(SMALL, shards=1).prepare()
        assert isinstance(fleet.engine, ShardedEngine)
        assert len(fleet.shards) == len(fleet.machines) == 1
        bare.drive()
        fleet.drive()
        # Same stream, same engine underneath; the fleet adds exactly
        # the router's hashing.
        assert fleet.ops == bare.ops
        assert (fleet.result()["core_seconds"]
                > bare.result()["core_seconds"])
        assert fleet.result()["ssd_ios"] == bare.result()["ssd_ios"]

    def test_engine_settings_ride_in_the_config_objects(self):
        run = replace(SMALL, shards=2, cores=2,
                      tc_config=replace(ASYNC_COMMIT,
                                        commit_interval_us=3.0)).prepare()
        for shard in run.shards:
            assert shard.machine.cpu.cores == 2
            assert shard.tc.config.commit_interval_us == 3.0
            assert shard.tc.pipeline is not None

    def test_device_specs_reach_the_drives(self):
        fast = SsdSpec().scaled(4.0)
        run = SMALL.prepare(ssd_spec=fast)
        assert run.machines[0].ssd.spec == fast
        shared = replace(SMALL, shards=2, tc_config=ASYNC_COMMIT,
                         log_topology="shared").prepare(log_ssd_spec=fast)
        assert shared.machines[0].ssd.spec == SsdSpec()
        assert shared.shards[0].tc.pipeline.device.ssd.spec == fast
        with pytest.raises(ValueError, match="needs a fleet"):
            SMALL.prepare(log_ssd_spec=fast)


class TestDrive:
    def test_batch_items(self):
        run = SMALL.prepare()
        kinds = {op.kind for op in run.ops}
        assert kinds == {OpKind.READ, OpKind.UPDATE}
        for op in run.ops:
            verb, key, value = batch_item(op)
            assert key == op.key
            assert (verb, value) == (("get", None)
                                     if op.kind is OpKind.READ
                                     else ("put", op.value))

    def test_every_op_observes_its_calls_latency(self):
        batched = replace(SMALL, batch_size=16).prepare()
        batched.drive()
        assert batched.latencies.count == SMALL.op_count
        per_op = replace(SMALL, batch_size=0).prepare()
        per_op.drive()
        assert per_op.latencies.count == SMALL.op_count
        # Group commit holds every request until its batch commits.
        assert (batched.result()["p50_latency_us"]
                > per_op.result()["p50_latency_us"])

    def test_drive_drains_the_commit_pipeline(self):
        run = replace(SMALL, shards=2, tc_config=ASYNC_COMMIT).prepare()
        run.drive()
        totals = fleet_totals(run.engine.stats())
        assert totals["commit_epochs"] > 0
        assert totals["commit_futures_resolved"] == totals["commits"]


class TestResult:
    def test_same_keys_for_engine_and_fleet_and_repeatable(self):
        bare = SMALL.measure()
        fleet = replace(SMALL, shards=3, tc_config=ASYNC_COMMIT,
                        log_topology="shared").measure()
        assert set(bare) == set(fleet)
        assert bare == SMALL.measure()
        assert (bare["shards"], fleet["shards"]) == (0, 3)
        assert (bare["commit"], fleet["commit"]) == ("sync", "async")
        assert bare["shard_balance"] == 1.0 <= fleet["shard_balance"]

    def test_record_mirrors_stats_and_prices_what_ran(self):
        run = replace(SMALL, shards=2, tc_config=ASYNC_COMMIT,
                      log_topology="shared").prepare()
        run.drive()
        record = run.result()
        totals = fleet_totals(run.engine.stats())
        for key in ("core_seconds", "elapsed_seconds", "ssd_ios",
                    "dram_bytes", "log_device_writes", "tc_hit_rate"):
            assert record[key] == totals[key]
        assert record["operations"] == SMALL.op_count
        assert record["ops_per_sec"] \
            == SMALL.op_count / totals["elapsed_seconds"]
        # A shared log drive bills its own writes; the data SSDs saw none.
        assert record["log_io_dollars_per_op"] > 0.0
        assert record["io_dollars_per_op"] == 0.0
        assert record["dollars_per_op"] == (
            record["exec_dollars_per_op"] + record["io_dollars_per_op"]
            + record["log_io_dollars_per_op"]
            + record["dram_dollars_per_op"]
            + record["tier_dollars_per_op"])
        colocated = replace(SMALL, shards=2,
                            tc_config=ASYNC_COMMIT).measure()
        assert colocated["log_io_dollars_per_op"] == 0.0
        assert colocated["io_dollars_per_op"] > 0.0


class TestValidation:
    def test_commit_names(self):
        assert Scenario(tc_config=SYNC_COMMIT).commit == "sync"
        assert Scenario(tc_config=ASYNC_COMMIT).commit == "async"
        assert Scenario(tc_config=TcConfig()).commit == "periodic"

    @pytest.mark.parametrize("kwargs,message", [
        ({"mix": "z"}, "unknown mix"),
        ({"shards": -1}, "Scenario.shards"),
        ({"op_count": 0}, "Scenario.op_count"),
        ({"shards": 2, "log_topology": "ring"}, "unknown log topology"),
        ({"log_topology": "shared"}, "require a fleet"),
    ])
    def test_bad_scenarios_fail_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Scenario(**kwargs)
