"""Engine benchmark: a table of named scenarios, derived ratios, floors.

``python -m repro bench-engine`` measures every row of
:func:`scenario_table` — each a :class:`~repro.scenarios.Scenario`, so
built, driven and priced exactly the way ``repro trace`` and ``repro
whatif`` build theirs — and writes one deterministic report (schema v8,
default ``BENCH_engine.json``):

* ``rows`` — name -> :meth:`~repro.scenarios.Run.result`, one flat
  record with the same key set per row.  The studies are groups of rows:
  per-op vs batched (group commit), the sync and async shard-scaling
  curves, the two commit-log topologies, record- vs page-granularity
  caching at equal DRAM, and drop vs demote eviction.
* ``derived`` — the cross-row numbers: batched speedups, scaling
  curves, ``mm_core_us_drop``, the tiered ``dollars_ratio``.
* ``floors`` — :data:`FLOORS` evaluated over ``derived`` by
  :func:`check_floors`; a floor whose rows did not run is ``skipped``.
* ``whatif`` — per tracked workload the causal profiler's baseline, its
  top-ranked component and that prediction's validation re-run.
* ``trace`` (``--trace`` only) — the traced run's per-component cost
  attribution.

Every number is virtual-time, so two runs produce byte-identical files.
Host time is ``benchmarks/e2e``'s job; ``--trace`` still *prints* the
tracing overhead it measures on the wall clock but does not track it.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..bwtree.tree import BwTreeConfig
from ..core.catalog import CostCatalog
from ..deuteronomy.engine import STATS, stats_window
from ..deuteronomy.tc import TcConfig
from ..hardware.logdevice import ACK_LATENCY_US
from ..hardware.tiers import StorageHierarchy
from ..observability.spans import Tracer
from ..observability.whatif import run_whatif
from ..scenarios import ASYNC_COMMIT, Scenario
from .wallclock import WallTimer

SCHEMA_VERSION = 8
DEFAULT_OUT = "BENCH_engine.json"

#: The tracked size (what ``BENCH_engine.json`` is generated at) and the
#: CI smoke size, as (records, ops).
TRACKED_SIZE = (4_000, 10_000)
SMOKE_SIZE = (500, 2_000)
BATCH_SIZE = 64
CORES = 4
#: ``WorkloadSpec``'s default seed: the one every tracked row has
#: always been generated at.  (The whatif block keeps ``Scenario``'s
#: own default, the ``repro whatif`` CLI's.)
SEED = 42
SHARD_COUNTS = (1, 2, 4, 8)
#: Smoke sweeps just the ends the smoke floors need.
SMOKE_SHARD_COUNTS = (1, 4)
#: The speedup factor the tracked whatif sweeps use.
WHATIF_SPEEDUP = 2.0
#: Back-to-back untraced/traced rounds behind the printed overhead.
TRACE_REPEATS = 7


@dataclass(frozen=True)
class Floor:
    """An acceptance bound on one ``derived`` value."""

    derived: str
    kind: str   # a key of _HOLDS
    bound: float
    why: str


_HOLDS = {">=": operator.ge, "<=": operator.le}

FLOORS = (
    Floor("ycsb-a/batched_speedup", ">=", 1.3,
          "the batched path exists to be faster on the update-heavy mix"),
    Floor("ycsb-a/4shard/sync/scaling_vs_1", ">=", 1.0,
          "with per-shard core-seconds per op held constant, 4 shards "
          "must at least match the 1-shard batched number"),
    Floor("ycsb-a/4shard/async/scaling_vs_1", ">=", 1.73,
          "the async pipeline never regresses below the sync-commit "
          "4-shard plateau it exists to break"),
    Floor("ycsb-a/8shard/async/scaling_vs_1", ">=", 3.0,
          "8-shard async scaling clears the WAL-bound wall"),
    Floor("record-cache/mm_core_us_drop", ">=", 0.20,
          "at equal cache DRAM the latch-free record heap cuts MM-op "
          "core-us vs the page-granularity path (measured ~0.36 "
          "tracked, ~0.40 smoke)"),
    Floor("record-cache/latch_free_vs_latched_speedup", ">=", 1.05,
          "Deuteronomy 2.0's contrast: on the identical trace the "
          "latch-free record heap (epoch protect + CAS) beats the latched "
          "one (acquire + convoy) on core-us per op (measured ~1.14 "
          "tracked)"),
    Floor("tiered/dollars_ratio", "<=", 0.90,
          "at equal DRAM demote-not-drop undercuts the drop baseline's "
          "$-per-op, far-memory rent included (measured ~0.63 tracked, "
          "~0.67 smoke)"),
)


def _budgets(records: int, value_bytes: int) -> Dict[str, int]:
    """Cache sizings shared by the table and the report's config."""
    # Record-cache study: ~30 bytes of key + header alongside each
    # value; every variant gets about half the loaded data as cache DRAM.
    budget = max(32 << 10, records * (value_bytes + 30) // 2)
    heap = budget // 2
    # Tiered study: a page cache well under the loaded leaf footprint
    # (about a quarter), so eviction runs constantly.
    capped = max(1 << 14, (records * value_bytes) // 4)
    return {
        "record_cache_budget_bytes": budget,
        "record_heap_budget_bytes": heap,
        "record_arena_bytes": max(1 << 10, heap // 16),
        "capped_cache_bytes": capped,
        "demote_budget_bytes": 4 * capped,
    }


def _sized(smoke: bool, **overrides) -> Scenario:
    records, ops = SMOKE_SIZE if smoke else TRACKED_SIZE
    return Scenario(record_count=records, op_count=ops,
                    batch_size=BATCH_SIZE, cores=CORES, **overrides)


def scenario_table(smoke: bool = False) -> Dict[str, Scenario]:
    """Every measured row, by name.  ``smoke`` shrinks the size and
    keeps only the rows the smoke floors read."""
    base = _sized(smoke, seed=SEED)
    mixes = "a" if smoke else "abc"
    shard_counts = SMOKE_SHARD_COUNTS if smoke else SHARD_COUNTS
    table: Dict[str, Scenario] = {}

    # Group commit: the same stream one autocommit per op vs apply_batch.
    for mix in mixes:
        table[f"ycsb-{mix}/per-op"] = replace(base, mix=mix, batch_size=0)
        table[f"ycsb-{mix}/batched"] = replace(base, mix=mix)
    # Scaling curves (batched scatter/gather): sync commit per mix, then
    # the async epoch pipeline on the update-heavy mix.
    for mix in mixes:
        for n in shard_counts:
            table[f"ycsb-{mix}/{n}shard/sync"] = replace(
                base, mix=mix, shards=n)
    for n in shard_counts:
        table[f"ycsb-a/{n}shard/async"] = replace(
            base, shards=n, tc_config=ASYNC_COMMIT)
    if not smoke:
        # Log placement at the top shard count (colocated is the async
        # curve's own 8-shard row).
        table["ycsb-a/8shard/async-shared-log"] = replace(
            base, shards=8, tc_config=ASYNC_COMMIT, log_topology="shared")

    # Record- vs page-granularity caching on read-hot YCSB-C: the same
    # cache DRAM budget and cold start (checkpointed, so evicted pages
    # live on flash); what differs is the granularity it is spent at.
    value_bytes = base.spec().value_bytes
    sizes = _budgets(base.record_count, value_bytes)
    budget = sizes["record_cache_budget_bytes"]
    heap = sizes["record_heap_budget_bytes"]
    arena = sizes["record_arena_bytes"]
    read_hot = replace(base, mix="c", batch_size=0, checkpoint=True)
    split = BwTreeConfig(cache_capacity_bytes=budget - heap)
    no_tc_cache = TcConfig(read_cache_bytes=1)
    # YCSB-C never dirties a record; the drain threshold only has to
    # sit under the heap for the config to be valid.
    record_heap = TcConfig(record_cache=True, record_cache_bytes=heap,
                           record_arena_bytes=arena,
                           record_dirty_flush_bytes=heap // 2)
    table["record-cache/page"] = replace(
        read_hot, tc_config=no_tc_cache,
        tree_config=BwTreeConfig(cache_capacity_bytes=budget))
    table["record-cache/latch-free"] = replace(
        read_hot, tc_config=record_heap, tree_config=split)
    if not smoke:
        table["record-cache/read-cache-v4"] = replace(
            read_hot, tc_config=TcConfig(read_cache_bytes=heap),
            tree_config=split)
        table["record-cache/latched"] = replace(
            read_hot, tree_config=split,
            tc_config=replace(record_heap, concurrency_mode="latched"))

    # Skewed YCSB-B on a capped page cache, per-op, periodic commit.
    capped = sizes["capped_cache_bytes"]
    skewed = replace(base, mix="b", batch_size=0, tc_config=TcConfig())
    # Drop vs demote at equal DRAM: victims go to flash and are re-read,
    # or park in the CXL far tier and promote on re-access.
    table["tiered/drop"] = replace(
        skewed, checkpoint=True,
        tree_config=BwTreeConfig(cache_capacity_bytes=capped))
    table["tiered/demote"] = replace(
        skewed, checkpoint=True,
        tree_config=BwTreeConfig(
            cache_capacity_bytes=capped, demote_to_tiers=True,
            demote_budget_bytes=sizes["demote_budget_bytes"]))
    return table


def whatif_table(smoke: bool = False) -> Dict[str, Scenario]:
    """The tracked what-if matrix: YCSB A/B/C on one engine, 1 vs 8
    shards, sync vs async commit over one shared log drive."""
    base = _sized(smoke)
    return {
        "ycsb-a/1shard/sync": base,
        "ycsb-b/1shard/sync": replace(base, mix="b"),
        "ycsb-c/1shard/sync": replace(base, mix="c"),
        "ycsb-a/8shard/sync": replace(base, shards=8),
        "ycsb-a/8shard/async-shared-log": replace(
            base, shards=8, tc_config=ASYNC_COMMIT, log_topology="shared"),
    }


# ---------------------------------------------------------------------------
# derived values and floors
# ---------------------------------------------------------------------------

def derive(rows: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Every cross-row number, for whichever rows ran."""
    derived: Dict[str, float] = {}

    def ratio(name: str, numerator: str, denominator: str,
              field: str = "ops_per_sec") -> None:
        if numerator in rows and denominator in rows:
            base = rows[denominator][field]
            derived[name] = rows[numerator][field] / base if base else 0.0

    for mix in "abc":
        ratio(f"ycsb-{mix}/batched_speedup",
              f"ycsb-{mix}/batched", f"ycsb-{mix}/per-op")
        for commit in ("sync", "async"):
            for n in SHARD_COUNTS:
                ratio(f"ycsb-{mix}/{n}shard/{commit}/scaling_vs_1",
                      f"ycsb-{mix}/{n}shard/{commit}",
                      f"ycsb-{mix}/1shard/{commit}")
    # What decoupling append from ack buys at the top shard count.
    ratio("ycsb-a/8shard/async_speedup",
          "ycsb-a/8shard/async", "ycsb-a/8shard/sync")

    # Log placement: the utilization-priced execution $/op (processor +
    # every device access, no rent) against the provisioned I/O-capability
    # capital each topology adds — 0 colocated, $I for one shared drive —
    # so the two can be traded explicitly (the five-minute-rule
    # revisit's axis).
    drive = CostCatalog().ssd_io_dollars
    for topology, name, capital in (
        ("colocated", "ycsb-a/8shard/async", 0.0),
        ("shared", "ycsb-a/8shard/async-shared-log", drive),
    ):
        if name in rows:
            row = rows[name]
            derived[f"log-topology/{topology}/execution_dollars_per_op"] = (
                row["exec_dollars_per_op"] + row["io_dollars_per_op"]
                + row["log_io_dollars_per_op"])
            derived[f"log-topology/{topology}/log_capital_dollars"] = capital

    def core_us_drop(name: str, variant: str) -> None:
        page = "record-cache/page"
        if variant in rows and page in rows:
            page_us = rows[page]["core_us_per_op"]
            derived[name] = (1.0 - rows[variant]["core_us_per_op"] / page_us
                             if page_us else 0.0)

    core_us_drop("record-cache/mm_core_us_drop", "record-cache/latch-free")
    core_us_drop("record-cache/latched_core_us_drop", "record-cache/latched")
    ratio("record-cache/latch_free_vs_latched_speedup",
          "record-cache/latched", "record-cache/latch-free",
          field="core_us_per_op")
    ratio("tiered/dollars_ratio", "tiered/demote", "tiered/drop",
          field="dollars_per_op")
    return derived


def check_floors(derived: Dict[str, float]) -> List[Dict[str, object]]:
    """Evaluate :data:`FLOORS`; a floor whose ``derived`` input is
    absent (its rows did not run) is ``skipped``, never passed."""
    results = []
    for floor in FLOORS:
        value = derived.get(floor.derived)
        if value is None:
            status = "skipped"
        elif _HOLDS[floor.kind](value, floor.bound):
            status = "pass"
        else:
            status = "fail"
        results.append({
            "derived": floor.derived,
            "kind": floor.kind,
            "bound": floor.bound,
            "value": value,
            "status": status,
            "why": floor.why,
        })
    return results


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

def _whatif_block(smoke: bool) -> Dict[str, object]:
    """Per tracked workload: the baseline, the component whose 2x
    speedup saves the most Eq. (4)-(5) $-per-op, and that prediction's
    validation by an actual scaled re-run (methodology in
    docs/PROFILING.md; ``repro whatif --sweep`` prints the full
    ranking)."""
    scenarios: Dict[str, object] = {}
    for label, scenario in whatif_table(smoke).items():
        result = run_whatif(scenario, speedup=WHATIF_SPEEDUP,
                            validate="top")
        winner = dict(result["components"][0])
        del winner["predicted"]   # the validation carries the same summary
        scenarios[label] = {
            "config": result["config"],
            "baseline": result["baseline"],
            "winner": winner,
            "validated": result["validated"][0],
        }
    return {"speedup": WHATIF_SPEEDUP, "scenarios": scenarios}


def run_bench(smoke: bool = False) -> Dict[str, object]:
    """Measure the table and return the report dict (see module doc)."""
    table = scenario_table(smoke)
    base = table["ycsb-a/batched"]
    hierarchy = StorageHierarchy.cxl_2026()
    rows = {name: scenario.measure() for name, scenario in table.items()}
    derived = derive(rows)
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "engine-throughput",
        "config": {
            "seed": base.seed,
            "record_count": base.record_count,
            "op_count": base.op_count,
            "batch_size": base.batch_size,
            "cores": base.cores,
            "value_bytes": base.spec().value_bytes,
            "shard_counts": list(SMOKE_SHARD_COUNTS if smoke
                                 else SHARD_COUNTS),
            "commit_interval_us": ASYNC_COMMIT.commit_interval_us,
            "commit_epoch_bytes": ASYNC_COMMIT.commit_epoch_bytes,
            "log_ack_latency_us": ACK_LATENCY_US,
            **_budgets(base.record_count, base.spec().value_bytes),
            "hierarchy": [tier.name for tier in hierarchy],
            "far_tier": hierarchy[1].name,
            "far_tier_dollars_per_byte": hierarchy[1].dollars_per_byte,
        },
        "rows": rows,
        "derived": derived,
        "floors": check_floors(derived),
        "whatif": _whatif_block(smoke),
    }


def run_trace_block(smoke: bool = False,
                    ) -> Tuple[Dict[str, object], Dict[str, float]]:
    """Batched ycsb-a with tracing off vs on: (``trace`` block, host
    timings).

    Both modes drive the identical stream on identical fresh engines;
    simulated costs are equal by construction (tracing charges nothing
    — asserted), so the delta is pure wall-clock harness overhead.  The
    modes alternate back-to-back within each of :data:`TRACE_REPEATS`
    rounds (over three times the table's ops), so each
    ``traced / untraced`` ratio compares runs under the same machine
    load, and the reported overhead is the *median* ratio minus one —
    scheduler jitter at sub-second run lengths would otherwise swamp it.
    The block tracks only what the virtual clock determines: the traced
    run's per-component cost breakdown and the ``STATS`` counter rows
    over its window.  The host timings are for printing.
    """
    batched = scenario_table(smoke)["ycsb-a/batched"]
    scenario = replace(batched, op_count=3 * batched.op_count)

    def one_run(traced: bool):
        run = scenario.prepare()
        tracer = delta = None
        if traced:
            (machine,) = run.machines
            tracer = Tracer(machine)
            machine.attach_tracer(tracer)
            before = run.engine.stats()
        with WallTimer() as timer:
            run.drive()
        if traced:
            delta = stats_window(before, run.engine.stats())
        return run.result()["core_us_per_op"], timer.elapsed, tracer, delta

    untraced_walls, traced_walls = [], []
    for _ in range(TRACE_REPEATS):
        untraced_us, wall, __, __ = one_run(False)
        untraced_walls.append(wall)
        traced_us, wall, tracer, delta = one_run(True)
        traced_walls.append(wall)
    assert traced_us == untraced_us, "tracing changed simulated costs"
    ratios = sorted(traced / untraced for traced, untraced
                    in zip(traced_walls, untraced_walls) if untraced)
    block = {
        "workload": f"ycsb-{scenario.mix}",
        "path": "batched",
        "operations": scenario.op_count,
        "repeats": TRACE_REPEATS,
        "cpu_us_by_component": tracer.cpu_us_by_component(),
        "ssd_ios_by_component": tracer.ssd_ios_by_component(),
        "unattributed_cpu_us": tracer.unattributed_us(),
        "metrics_delta_counters": {
            name: delta[name] for name, kind, __ in STATS
            if kind == "counter"},
    }
    timings = {
        "overhead_fraction": (ratios[len(ratios) // 2] - 1.0
                              if ratios else 0.0),
        "untraced_seconds": min(untraced_walls),
        "traced_seconds": min(traced_walls),
    }
    return block, timings


def render(report: Dict[str, object]) -> str:
    """Human-readable summary of a report dict."""
    config = report["config"]
    lines = [
        f"engine benchmark (schema v{report['schema_version']}): "
        f"{config['op_count']} ops over {config['record_count']} records, "
        f"batch={config['batch_size']}, cores={config['cores']}, "
        f"seed={config['seed']}",
        f"{'row':34s} {'ops/sec':>12s} {'core us/op':>10s} {'p50 us':>8s} "
        f"{'p99 us':>8s} {'tc hit':>6s} {'pg hit':>6s} {'ssd ios':>7s} "
        f"{'flushes':>7s} {'$/op':>10s}",
    ]
    for name, row in report["rows"].items():
        lines.append(
            f"{name:34s} {row['ops_per_sec']:12,.0f} "
            f"{row['core_us_per_op']:10.3f} {row['p50_latency_us']:8.2f} "
            f"{row['p99_latency_us']:8.2f} {row['tc_hit_rate']:6.3f} "
            f"{row['page_cache_hit_rate']:6.3f} {row['ssd_ios']:7d} "
            f"{row['log_flushes']:7d} {row['dollars_per_op']:10.3e}"
        )
    lines += ["", "derived:"]
    lines += [f"  {name:52s} {value:16.6g}"
              for name, value in report["derived"].items()]
    lines += ["", "floors:"]
    for floor in report["floors"]:
        value = floor["value"]
        lines.append(
            f"  {floor['status']:8s} {floor['derived']} "
            f"{'-' if value is None else format(value, '.4g')} "
            f"{floor['kind']} {floor['bound']}"
        )
    whatif = report["whatif"]
    lines += [
        "",
        f"what-if causal bottlenecks (speedup {whatif['speedup']:.0f}x, "
        f"winner validated):",
        f"{'scenario':32s} {'top bottleneck':16s} {'saved $/op %':>12s} "
        f"{'ops/s gain':>10s} {'contract':>11s} {'rel err':>10s}",
    ]
    for label, scenario in whatif["scenarios"].items():
        winner, validated = scenario["winner"], scenario["validated"]
        lines.append(
            f"{label:32s} {winner['component']:16s} "
            f"{winner['savings_pct']:11.2f}% "
            f"{winner['ops_per_sec_gain_pct']:9.2f}% "
            f"{validated['contract']:>11s} "
            f"{validated['agreement']['dollars_rel_err']:10.3e}"
        )
    trace = report.get("trace")
    if trace:
        breakdown = trace["cpu_us_by_component"]
        total = sum(breakdown.values()) or 1.0
        parts = ", ".join(
            f"{component} {us / total * 100:.0f}%"
            for component, us in sorted(
                breakdown.items(), key=lambda kv: -kv[1])
        )
        lines += ["", f"traced {trace['workload']} ({trace['path']}) "
                      f"cpu by component: {parts}"]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-engine",
        description="Engine benchmark: scenario rows, derived ratios, "
                    "acceptance floors.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI run: the smoke rows at the smoke size, "
                             "every floor whose rows ran")
    parser.add_argument("--trace", action="store_true",
                        help="also trace batched ycsb-a: track the "
                             "per-component cost attribution ('trace' "
                             "block) and print the tracing overhead")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT}); "
                             "'-' skips writing")
    args = parser.parse_args(argv)

    report = run_bench(smoke=args.smoke)
    timings = None
    if args.trace:
        report["trace"], timings = run_trace_block(smoke=args.smoke)
    print(render(report))
    if timings is not None:
        print(
            f"tracing overhead: {timings['overhead_fraction'] * 100:.1f}% "
            f"host time ({timings['untraced_seconds']:.3f}s -> "
            f"{timings['traced_seconds']:.3f}s; not tracked)"
        )
    if args.out != "-":
        out_path = Path(args.out)
        out_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                            + "\n")
        print(f"\nwrote {out_path}")

    failures = [floor for floor in report["floors"]
                if floor["status"] == "fail"]
    for floor in failures:
        print(f"FAIL: {floor['derived']} = {floor['value']:.4g}, need "
              f"{floor['kind']} {floor['bound']} ({floor['why']})",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
