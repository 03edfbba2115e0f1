"""Metric names, units, directions and bounds: the single definition.

``BENCHMARK.json`` at the repository root repeats these (a test pins the
two together).  Every later performance or simplicity change is judged
by these names, so a metric is renamed or redefined only in a change
that does nothing else.

Clocks: ``sim_*`` and every ``<layer>.sim_*`` metric is on the *virtual*
clock (what the modelled hardware would take, a deterministic function
of the seed); ``host_*``, ``setup_s`` and every ``<layer>.host_*`` metric
is on the *host* clock (what the simulator takes to run).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Relative worsening that counts as a regression.
    bound: float
    clock: str
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


# The virtual-clock metrics repeat bit-for-bit on one seed, so any
# difference between two commits on the same seed is real.  Their bounds
# are nevertheless sized to the spread *across seeds*, because the
# acceptance procedure draws ten seeds per set of runs and requires the
# inter-quartile spread to stay inside the bound: about three times the
# largest spread seen on any workload (README.md, "Bounds").  The host
# bounds are as wide as the contract allows because the host this was
# written on moves that much by itself.
END_TO_END: List[EndToEnd] = [
    EndToEnd("sim_ops_per_s", "ops/s", "higher", 0.12, "virtual",
             "measured ops / stats() elapsed_seconds (fleet: stats()['fleet'])"),
    EndToEnd("sim_core_us_per_op", "us", "lower", 0.04, "virtual",
             "core_seconds * 1e6 / ops: the paper's execution cost"),
    EndToEnd("sim_usd_per_mop", "usd/Mop", "lower", 0.04, "virtual",
             "$P*core_s/(cores*ops) + $I*(ssd_ios+log_device_writes)/(IOPS*ops)"
             " + $M*dram_bytes*elapsed/ops + tier rent, per 1e6 ops"),
    EndToEnd("sim_mean_latency_us", "us", "lower", 0.04, "virtual",
             "mean per-call delta of cpu.busy_us + ssd.service_us_total; "
             "every op of a batch gets the batch's latency"),
    EndToEnd("host_ops_per_s", "ops/s", "higher", 0.25, "wall",
             "measured ops / steady wall seconds of the measured phase"),
    EndToEnd("host_cpu_us_per_op", "us", "lower", 0.25, "process CPU",
             "steady process_time of the measured phase / ops"),
    EndToEnd("host_peak_rss_mb", "MiB", "lower", 0.15, "-",
             "ru_maxrss of the workload subprocess when the clock stops"),
    EndToEnd("setup_s", "s", "lower", 0.25, "wall",
             "generate + build + bulk-load + warm-up; median of the set-ups"),
]


def _layer(prefix: str, *specs: str) -> List[PerLayer]:
    """``specs`` are ``"name unit better"`` triples for one layer."""
    rows = []
    for spec in specs:
        name, unit, better = spec.split()
        rows.append(PerLayer(f"{prefix}.{name}", unit, better))
    return rows


PER_LAYER: List[PerLayer] = [
    *_layer("workloads", "gen_s s lower", "load_s s lower"),
    *_layer("router", "host_self_s s lower", "host_calls count lower",
            "sim_cpu_us_per_op us lower", "shard_balance ratio lower"),
    *_layer("engine", "host_self_s s lower", "host_calls count lower",
            "sim_p50_us us lower", "sim_p99_us us lower"),
    *_layer("tc", "host_self_s s lower", "host_calls count lower",
            "sim_cpu_us_per_op us lower", "hit_rate ratio higher",
            "dc_reads_per_op 1/op lower", "commits count higher",
            "aborts count lower", "commit_batch_mean records higher"),
    *_layer("mvcc", "host_self_s s lower", "truncate_calls count lower",
            "truncate_host_s s lower", "versions_resident count lower"),
    *_layer("read_cache", "host_self_s s lower", "sim_cpu_us_per_op us lower",
            "hit_rate ratio higher", "resident_bytes bytes lower"),
    *_layer("record_cache", "host_self_s s lower",
            "sim_cpu_us_per_op us lower", "hit_rate ratio higher",
            "gc_relocations count lower"),
    *_layer("recovery_log", "host_self_s s lower",
            "sim_cpu_us_per_op us lower", "flushes count lower",
            "batch_appends count lower", "ssd_ios count lower",
            "retained_bytes bytes lower"),
    *_layer("commit_pipeline", "host_self_s s lower",
            "sim_cpu_us_per_op us lower", "epochs count lower",
            "group_mean commits higher", "commit_wait_us_per_op us lower"),
    *_layer("bwtree", "host_self_s s lower", "host_calls count lower",
            "sim_cpu_us_per_op us lower", "mm_ops count higher",
            "ss_ops count lower", "consolidations count lower",
            "leaf_splits count lower", "blind_batches count lower",
            "depth levels lower"),
    *_layer("page_cache", "host_self_s s lower", "sim_cpu_us_per_op us lower",
            "hit_rate ratio higher", "fetches count lower",
            "evictions count lower", "resident_bytes bytes lower"),
    *_layer("tier_cache", "host_self_s s lower", "demotions count lower",
            "promotions count higher"),
    *_layer("log_store", "host_self_s s lower", "sim_cpu_us_per_op us lower",
            "reads count lower", "segment_flushes count lower",
            "bytes_appended bytes lower", "write_amp ratio lower",
            "space_amp ratio lower", "utilization ratio higher",
            "ssd_ios count lower"),
    *_layer("gc", "host_self_s s lower", "segments_reclaimed count higher"),
    *_layer("checkpoint", "host_self_s s lower", "count count lower"),
    *_layer("io_path", "host_self_s s lower", "sim_cpu_us_per_op us lower",
            "round_trips count lower"),
    *_layer("ssd", "host_self_s s lower", "ios_per_op 1/op lower",
            "read_ios count lower", "write_ios count lower",
            "sim_busy_s s lower"),
    *_layer("log_device", "host_self_s s lower", "writes count lower",
            "bytes bytes lower", "sim_busy_s s lower",
            "queue_wait_us us lower"),
    *_layer("cpu_model", "charges_per_op 1/op lower"),
    *_layer("recovery", "host_s s lower", "sim_core_us us lower",
            "records_replayed count lower"),
    *_layer("driver", "host_self_s s lower"),
    *_layer("trace", "overhead_ratio ratio lower"),
]

#: Layers with a ``host_self_s`` metric: together they partition the
#: traced wall time.
TIMED_LAYERS = [row.name.split(".")[0] for row in PER_LAYER
                if row.name.endswith(".host_self_s")]

UNITS: Dict[str, str] = {row.name: row.unit
                         for row in (*END_TO_END, *PER_LAYER)}


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The contract's ``{"name": {"value": v, "unit": u}}`` form."""
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}
