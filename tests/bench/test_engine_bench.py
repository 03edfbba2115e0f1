"""The engine benchmark (schema v8): rows, derived ratios, floors.

One smoke report (every smoke row, the whatif block, the floors) is
measured once per module; the CLI test measures a second one and the
two must be equal, which is the determinism contract CI ``cmp``s across
processes.  Golden literals from the last schema-v7 ``BENCH_engine.json``
pin the tracked size: the refactor onto ``repro.scenarios`` moved no
virtual number.
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.bench import engine_bench
from repro.bench.engine_bench import (
    FLOORS,
    SCHEMA_VERSION,
    SMOKE_SIZE,
    check_floors,
    derive,
    render,
    run_bench,
    run_trace_block,
    scenario_table,
    whatif_table,
)
from repro.observability.whatif import run_scenario, summarize
from repro.scenarios import Scenario

TRACKED_FILE = Path(__file__).resolve().parents[2] / "BENCH_engine.json"
HOST_CLOCK_KEY = re.compile(r"wall|host")


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke=True)


def _keys(node):
    """Every dict key anywhere inside a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


class TestRunBench:
    def test_report_shape_and_speedup(self, smoke_report):
        assert smoke_report["schema_version"] == SCHEMA_VERSION == 8
        assert smoke_report["benchmark"] == "engine-throughput"
        assert set(smoke_report) == {
            "schema_version", "benchmark", "config", "rows", "derived",
            "floors", "whatif"}
        records, ops = SMOKE_SIZE
        assert smoke_report["config"]["record_count"] == records
        rows = smoke_report["rows"]
        per_op, batched = rows["ycsb-a/per-op"], rows["ycsb-a/batched"]
        assert per_op["operations"] == batched["operations"] == ops
        assert (per_op["batch_size"], batched["batch_size"]) == (0, 64)
        # The point of the batched path: it must beat per-op on the
        # update-heavy mix by a clear margin.
        speedup = smoke_report["derived"]["ycsb-a/batched_speedup"]
        assert speedup == batched["ops_per_sec"] / per_op["ops_per_sec"]
        assert speedup >= 1.3
        # Group commit trades per-request latency for throughput.
        assert batched["p50_latency_us"] >= per_op["p50_latency_us"]
        # One flush decision per batch, not per commit.
        assert batched["log_flushes"] < per_op["log_flushes"]

    def test_render_is_textual(self, smoke_report):
        text = render(smoke_report)
        assert "ycsb-a/batched" in text
        assert "ycsb-a/batched_speedup" in text
        assert "floors:" in text

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            Scenario(mix="z")


class TestShardedSweep:
    def test_sharded_section_shape(self, smoke_report):
        rows, derived = smoke_report["rows"], smoke_report["derived"]
        assert smoke_report["config"]["shard_counts"] == [1, 4]
        for commit in ("sync", "async"):
            one = rows[f"ycsb-a/1shard/{commit}"]
            four = rows[f"ycsb-a/4shard/{commit}"]
            assert (one["shards"], four["shards"]) == (1, 4)
            assert one["commit"] == four["commit"] == commit
            assert one["shard_balance"] == 1.0
            assert four["shard_balance"] >= 1.0
            # Scaling is normalised against the single-shard fleet.
            assert derived[f"ycsb-a/1shard/{commit}/scaling_vs_1"] == 1.0
            assert derived[f"ycsb-a/4shard/{commit}/scaling_vs_1"] == (
                four["ops_per_sec"] / one["ops_per_sec"])
        # A fleet of one still pays the router: not the bare engine.
        assert (rows["ycsb-a/1shard/sync"]["core_seconds"]
                > rows["ycsb-a/batched"]["core_seconds"])
        # The async pipeline closes epochs; sync shards never do.
        assert rows["ycsb-a/4shard/async"]["commit_epochs"] > 0
        assert rows["ycsb-a/4shard/async"]["commit_group_mean"] > 1.0
        assert rows["ycsb-a/4shard/sync"]["commit_epochs"] == 0

    def test_render_includes_sharded_table(self, smoke_report):
        text = render(smoke_report)
        assert "ycsb-a/4shard/sync" in text
        assert "scaling_vs_1" in text


class TestRecordCacheBlock:
    """Record-granularity vs page-granularity caching at equal DRAM."""

    def test_smoke_block_shape_and_floor(self, smoke_report):
        rows = smoke_report["rows"]
        assert {name for name in rows if name.startswith("record-cache/")} \
            == {"record-cache/page", "record-cache/latch-free"}
        config = smoke_report["config"]
        assert config["record_heap_budget_bytes"] \
            == config["record_cache_budget_bytes"] // 2
        # The acceptance metric: at equal cache DRAM, record-granularity
        # caching beats page-granularity caching by the CI floor.
        assert smoke_report["derived"]["record-cache/mm_core_us_drop"] >= 0.20
        page = rows["record-cache/page"]
        latch_free = rows["record-cache/latch-free"]
        # The page variant spends the whole budget at page granularity:
        # no TC record caching, more device reads.
        assert page["record_heap_bytes"] == 0
        assert latch_free["record_cache_hit_rate"] > 0.5
        assert latch_free["ssd_ios"] < page["ssd_ios"]

    def test_full_block_latched_costing(self):
        # The full table's read-hot rows, shrunk.  Budgets stay at the
        # tracked sizing, so everything is resident: a shape check — the
        # tracked numbers are pinned by BENCH_engine.json itself.
        table = {
            name: replace(scenario, record_count=300, op_count=600)
            for name, scenario in scenario_table().items()
            if name.startswith("record-cache/")
        }
        assert set(table) == {
            "record-cache/page", "record-cache/read-cache-v4",
            "record-cache/latch-free", "record-cache/latched"}
        rows = {name: scenario.measure()
                for name, scenario in table.items()}
        assert len({frozenset(row) for row in rows.values()}) == 1
        derived = derive(rows)
        # Latched mode pays acquire+convoy where latch-free pays
        # epoch-protect+CAS on the identical trace.
        assert derived["record-cache/latch_free_vs_latched_speedup"] > 1.0
        assert (derived["record-cache/latched_core_us_drop"]
                < derived["record-cache/mm_core_us_drop"])

    def test_render_includes_record_cache_section(self, smoke_report):
        text = render(smoke_report)
        assert "record-cache/latch-free" in text
        assert "record-cache/mm_core_us_drop" in text


class TestTieredBlock:
    """Drop-vs-demote eviction over the CXL hierarchy."""

    def test_block_shape_and_dollar_ceiling(self, smoke_report):
        config = smoke_report["config"]
        assert config["far_tier"] == "cxl-far-memory"
        assert config["hierarchy"] == ["dram", "cxl-far-memory", "nvme-ssd"]
        assert config["demote_budget_bytes"] \
            == 4 * config["capped_cache_bytes"]
        drop = smoke_report["rows"]["tiered/drop"]
        demote = smoke_report["rows"]["tiered/demote"]
        # The drop variant never touches the victim tier.
        assert drop["demotions"] == 0
        assert drop["tier_resident_bytes"] == 0
        assert drop["tier_dollars_per_op"] == 0.0
        # Demote-not-drop actually runs and pays far-memory rent.
        assert demote["demotions"] > 0
        assert demote["promotions"] > 0
        assert demote["tier_dollars_per_op"] > 0.0
        # Promotions replace device reads on the skewed mix.
        assert demote["ssd_ios"] < drop["ssd_ios"]
        # The acceptance metric: demote wins on $-per-op with rent billed.
        ratio = smoke_report["derived"]["tiered/dollars_ratio"]
        assert ratio == demote["dollars_per_op"] / drop["dollars_per_op"]
        assert ratio <= 0.90

    def test_run_bench_attaches_tiered_block(self, smoke_report):
        for name in ("tiered/drop", "tiered/demote"):
            row = smoke_report["rows"][name]
            assert row["workload"] == "ycsb-b"
            assert row["commit"] == "periodic"

    def test_render_includes_tiered_table(self, smoke_report):
        text = render(smoke_report)
        assert "tiered/demote" in text and "tiered/drop" in text
        assert "tiered/dollars_ratio" in text


class TestWhatifBlock:
    """Per tracked workload: baseline, winner, the winner's validation."""

    def test_block_shape_and_agreement(self, smoke_report):
        block = smoke_report["whatif"]
        assert block["speedup"] == 2.0
        scenarios = block["scenarios"]
        # The tracked matrix: YCSB A/B/C single-shard, 1-vs-8 shards,
        # sync-vs-async commit.
        assert set(scenarios) == set(whatif_table()) == {
            "ycsb-a/1shard/sync", "ycsb-b/1shard/sync",
            "ycsb-c/1shard/sync", "ycsb-a/8shard/sync",
            "ycsb-a/8shard/async-shared-log",
        }
        for scenario in scenarios.values():
            # Only the winner is tracked, not the full ranking.
            assert set(scenario) == {"config", "baseline", "winner",
                                     "validated"}
            winner, validated = scenario["winner"], scenario["validated"]
            assert winner["rank"] == 1
            assert winner["savings_dollars_per_op"] > 0.0
            assert validated["component"] == winner["component"]
            # check_agreement already asserted the contract; sync
            # scenarios must additionally read exactly zero error.
            if scenario["config"]["commit"] == "sync":
                assert validated["agreement"]["dollars_rel_err"] == 0.0
        assert scenarios["ycsb-a/1shard/sync"]["config"]["shards"] == 1
        shared = scenarios["ycsb-a/8shard/async-shared-log"]
        assert shared["config"]["shards"] == 8
        assert shared["validated"]["contract"] == "queueing"

    def test_render_includes_whatif_table(self, smoke_report):
        text = render(smoke_report)
        assert "what-if causal bottlenecks" in text
        assert "top bottleneck" in text


class TestGoldenRows:
    """Literals from the schema-v7 file, at the tracked size."""

    def test_whatif_baseline(self):
        baseline = summarize(run_scenario(
            whatif_table()["ycsb-a/1shard/sync"]))
        assert baseline.core_seconds == 0.004923937800002646
        assert baseline.ssd_ios == 157
        assert baseline.dram_bytes == 1952742
        assert baseline.dollars_per_op == 4.085573539753828e-05

    def test_sharded_async_row(self):
        row = scenario_table()["ycsb-a/4shard/async"].measure()
        assert row["core_seconds"] == 0.005285005799998981
        assert row["elapsed_seconds"] == 0.0004099344999999059
        assert row["ops_per_sec"] == 24394141.015216567
        assert row["ssd_ios"] == row["commit_epochs"] == 26
        assert row["dram_bytes"] == 1946188
        assert row["shard_balance"] == 1.4

    def test_record_cache_row(self):
        row = scenario_table()["record-cache/latch-free"].measure()
        assert row["core_us_per_op"] == 2.004721900000504
        assert row["ssd_ios"] == 1876
        assert row["dram_bytes"] == 278818
        assert row["record_heap_bytes"] == 127896
        assert row["record_cache_hit_rate"] == 0.7547


class TestDeterminism:
    def test_reports_carry_no_host_clock_field(self, smoke_report):
        tracked = json.loads(TRACKED_FILE.read_text())
        assert tracked["schema_version"] == SCHEMA_VERSION
        for report in (smoke_report, tracked):
            assert not [key for key in _keys(report)
                        if HOST_CLOCK_KEY.search(key)]

    def test_trace_block_tracks_only_the_attribution(self, monkeypatch):
        monkeypatch.setattr(engine_bench, "TRACE_REPEATS", 1)
        block, timings = run_trace_block(smoke=True)
        assert not [key for key in _keys(block) if HOST_CLOCK_KEY.search(key)]
        assert block["operations"] == 3 * SMOKE_SIZE[1]
        assert block["unattributed_cpu_us"] == 0.0
        assert block["cpu_us_by_component"]["bwtree"] > 0.0
        assert block["metrics_delta_counters"]["commits"] > 0
        assert set(timings) == {"overhead_fraction", "untraced_seconds",
                                "traced_seconds"}


class TestFloors:
    PASSING = {
        "ycsb-a/batched_speedup": 20.0,
        "ycsb-a/4shard/sync/scaling_vs_1": 1.7,
        "ycsb-a/4shard/async/scaling_vs_1": 3.0,
        "ycsb-a/8shard/async/scaling_vs_1": 4.9,
        "record-cache/mm_core_us_drop": 0.36,
        "record-cache/latch_free_vs_latched_speedup": 1.14,
        "tiered/dollars_ratio": 0.63,
    }

    def test_every_floor_reads_a_derived_value(self):
        assert {floor.derived for floor in FLOORS} == set(self.PASSING)
        assert all(result["status"] == "pass"
                   for result in check_floors(self.PASSING))

    @pytest.mark.parametrize("floor", FLOORS, ids=lambda f: f.derived)
    def test_floor_fails_past_its_bound(self, floor):
        nudge = -1e-9 if floor.kind == ">=" else 1e-9
        at_bound = {**self.PASSING, floor.derived: floor.bound}
        past = {**self.PASSING, floor.derived: floor.bound + nudge}
        statuses = {result["derived"]: result["status"]
                    for result in check_floors(at_bound)}
        assert statuses[floor.derived] == "pass"
        statuses = {result["derived"]: result["status"]
                    for result in check_floors(past)}
        assert statuses.pop(floor.derived) == "fail"
        assert set(statuses.values()) == {"pass"}

    def test_floor_without_its_rows_is_skipped_not_passed(self,
                                                          smoke_report):
        assert all(result["status"] == "skipped"
                   for result in check_floors({}))
        statuses = {result["derived"]: result["status"]
                    for result in smoke_report["floors"]}
        # Smoke stops at 4 shards and builds no latched row: those two
        # floors did not run.
        assert statuses.pop("ycsb-a/8shard/async/scaling_vs_1") == "skipped"
        assert (statuses.pop("record-cache/latch_free_vs_latched_speedup")
                == "skipped")
        assert set(statuses.values()) == {"pass"}


class TestRowKeySet:
    def test_every_row_carries_the_same_keys(self, smoke_report):
        key_sets = {frozenset(row)
                    for row in smoke_report["rows"].values()}
        assert len(key_sets) == 1
        tracked = json.loads(TRACKED_FILE.read_text())
        assert {frozenset(row) for row in tracked["rows"].values()} \
            == key_sets
        assert set(tracked["rows"]) == set(scenario_table())
        assert set(smoke_report["rows"]) == set(scenario_table(smoke=True))
        assert set(smoke_report["rows"]) < set(tracked["rows"])


class TestCli:
    def test_bench_engine_subcommand_writes_json(self, tmp_path, capsys,
                                                 smoke_report):
        out = tmp_path / "bench.json"
        rc = cli_main(["bench-engine", "--smoke", "--out", str(out)])
        assert rc == 0
        # A second in-process smoke run: equal to the first, number for
        # number (CI cmp's two processes' files).
        assert json.loads(out.read_text()) \
            == json.loads(json.dumps(smoke_report))
        captured = capsys.readouterr()
        assert "ycsb-a/batched_speedup" in captured.out
        assert "FAIL" not in captured.err

    def test_failed_floor_is_a_nonzero_exit(self, monkeypatch, capsys,
                                            smoke_report):
        failing = dict(smoke_report)
        failing["floors"] = check_floors(
            {**smoke_report["derived"], "tiered/dollars_ratio": 0.95})
        monkeypatch.setattr(engine_bench, "run_bench",
                            lambda smoke: failing)
        assert engine_bench.main(["--smoke", "--out", "-"]) == 1
        assert "FAIL: tiered/dollars_ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--shards", "--scaling-smoke", "--record-cache-smoke",
        "--tiered-smoke", "--mixes", "--records", "--ops", "--batch-size",
        "--cores"])
    def test_cli_is_three_flags(self, flag, capsys):
        with pytest.raises(SystemExit):
            engine_bench.main([flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err
