"""One run of one workload, in this process: set up, measure, check.

Run shape (identical for every workload):

* **Set-up** (timed as ``setup_s``): generate the load items and the whole
  op stream from ``WorkloadSpec(seed=...)`` and flatten it to plain
  tuples, build the machine(s) and engine, bulk-load and checkpoint, run
  the warm-up ops so the modelled caches are full, zero the accounting,
  ``gc.collect()``.
* **Measured phase**: ``perf_counter`` + ``process_time`` around the whole
  loop and around each chunk of it, one reference unit after each chunk
  (see :func:`steady_ns`); ``machine.latency_window()`` deltas around
  each call give the virtual latency; results are appended to a list and
  looked at later.
* **After the clock stops**: peak RSS, stats collection, oracle check,
  then (where the workload says so) crash, recovery and read-back.

Virtual numbers are read from public ``stats()`` / ``machine.summary()``
/ ``machine.cpu.counters``; host numbers come from timing the calls from
outside.  Nothing under ``src/`` is touched.
"""

from __future__ import annotations

import collections
import gc
import math
import resource
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.catalog import CostCatalog
from repro.deuteronomy.engine import DeuteronomyEngine
from repro.hardware.tiers import StorageHierarchy
from repro.observability.spans import COMPONENT_OF_CATEGORY
from repro.sharding.engine import ShardedEngine
from repro.workloads.ycsb import OpKind, WorkloadGenerator

from layertrace import LayerTracer, installed
from metrics import TIMED_LAYERS
from reference import ReferenceKernel, lower_quartile, speed_factor
from scenarios import CORES_PER_MACHINE, GET_CHUNK_OPS, Engine, Scenario

#: Keep full span records for every this-many-th op of a traced run.
SAMPLE_EVERY_OPS = 1024
#: Windows over which the steady host time is taken, see steady_ns.
STEADY_WINDOWS = 16

#: Keys per ``multi_get`` when reading acked writes back after recovery.
READ_BACK_BATCH = 256

#: Stands in for the result of a call that raised.
FAILED = object()

BatchOp = Tuple[str, bytes, Optional[bytes]]


class CountingSink:
    """``CpuModel`` charge sink that only counts (traced runs)."""

    def __init__(self) -> None:
        self.charges = 0

    def on_charge(self, category: str, microseconds: float) -> None:
        self.charges += 1


class Prepared:
    """Everything set-up produced, ready for the measured phase."""

    def __init__(self) -> None:
        self.engine: Engine
        self.shards: List[DeuteronomyEngine]
        self.kernel: ReferenceKernel
        self.model: Dict[bytes, bytes] = {}
        self.measured: List[BatchOp] = []
        #: Keys written (and acknowledged) since the load, warm-up included.
        self.written: set = set()
        self.warmup_failed = 0
        self.baseline: Dict[str, float] = {}
        self.setup_s = 0.0
        self.load_items_s = 0.0
        self.gen_s = 0.0
        self.build_s = 0.0
        self.warmup_s = 0.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def _flatten(operations) -> List[BatchOp]:
    return [
        ("get", op.key, None) if op.kind is OpKind.READ
        else ("put", op.key, op.value)
        for op in operations
    ]


def prepare(scenario: Scenario, seed: int) -> Prepared:
    """Set-up: everything before the clock starts."""
    prepared = Prepared()
    prepared.kernel = kernel = ReferenceKernel()
    started = time.perf_counter()
    generator = WorkloadGenerator(scenario.spec(seed))
    items = list(generator.load_items())
    loaded_at = time.perf_counter()
    stream = _flatten(generator.operations(
        scenario.warmup_ops + scenario.measured_ops))
    prepared.load_items_s = loaded_at - started
    prepared.gen_s = time.perf_counter() - loaded_at

    built_from = time.perf_counter()
    engine, shards = scenario.build()
    prepared.engine, prepared.shards = engine, shards
    if isinstance(engine, ShardedEngine):
        engine.bulk_load(items)
    else:
        engine.dc.bulk_load(items)
    # Loaded data must be on flash: evicted pages are re-read from there
    # and recovery starts from the last checkpoint.
    engine.checkpoint()
    prepared.build_s = time.perf_counter() - built_from

    warmup = stream[:scenario.warmup_ops]
    prepared.measured = stream[scenario.warmup_ops:]
    prepared.model = dict(items)
    outcome = _drive(scenario, engine, shards, warmup, kernel, tracer=None)
    prepared.warmup_s = outcome.wall_s
    prepared.warmup_failed = _replay(prepared.model, warmup, outcome.results)
    prepared.written = {key for kind, key, __ in stream if kind == "put"}

    for shard in shards:
        shard.machine.reset_accounting()
        pipeline = shard.tc.pipeline
        if pipeline is not None:
            # The log device and (when not colocated) its drive keep
            # their own traffic accounting outside the machine's.
            pipeline.device.reset()
            pipeline.device.ssd.reset()
    prepared.baseline = _raw_counts(shards)
    gc.collect()
    # Set-up stays in host seconds: scaling it by the reference units of
    # the warm-up was tried and did not steady it.
    prepared.setup_s = (time.perf_counter() - started
                        - sum(outcome.unit_wall_ns) * 1e-9)
    return prepared


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

class Outcome:
    def __init__(self) -> None:
        self.results: list = []
        #: One virtual latency per op (a batch's ops all get the batch's).
        self.latencies_us: List[float] = []
        #: Raw host totals around the whole loop, reference units excluded.
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: Host time of each chunk of the loop (GET_CHUNK_OPS gets, or one
        #: batch call) and of the reference unit run right after it.
        self.chunk_wall_ns: List[int] = []
        self.chunk_cpu_ns: List[int] = []
        self.unit_wall_ns: List[int] = []
        self.unit_cpu_ns: List[int] = []

    def steady_seconds(self) -> Tuple[float, float]:
        """(wall, cpu) *reference* seconds of the loop, interference and
        the host's current speed taken out (see :func:`steady_ns`).

        Calls outside the chunks (checkpoint, GC, the final drain) are
        few and long; they are kept as measured and scaled by the run's
        overall speed factor.
        """
        outside_wall = self.wall_s - sum(self.chunk_wall_ns) * 1e-9
        outside_cpu = self.cpu_s - sum(self.chunk_cpu_ns) * 1e-9
        return (
            steady_ns(self.chunk_wall_ns, self.unit_wall_ns) * 1e-9
            + outside_wall * speed_factor(self.unit_wall_ns),
            steady_ns(self.chunk_cpu_ns, self.unit_cpu_ns) * 1e-9
            + outside_cpu * speed_factor(self.unit_cpu_ns),
        )


def steady_ns(chunks: Sequence[int], units: Sequence[int],
              windows: int = STEADY_WINDOWS) -> float:
    """Reference nanoseconds ``chunks`` would sum to on a quiet host.

    Two corrections, window by window over the run.  Other tenants only
    ever *add* time, in bursts that hit a minority of millisecond-sized
    samples, so each window counts its lower-quartile chunk time for
    every chunk (the plain sum of a 5 s loop moved by up to 58% between
    identical runs here, this by 17%).  And the host's speed itself
    drifts, so each window is scaled by the speed the reference units
    next to its chunks ran at (README.md, "Steady host time").  Window
    by window, not once over the run, because the update workloads' cost
    per batch drifts as the version store grows.
    """
    total = 0.0
    size = max(1, math.ceil(len(chunks) / windows))
    for start in range(0, len(chunks), size):
        window = chunks[start:start + size]
        total += (lower_quartile(window) * len(window)
                  * speed_factor(units[start:start + size]))
    return total


def _drive(scenario: Scenario, engine: Engine,
           shards: Sequence[DeuteronomyEngine], ops: Sequence[BatchOp],
           kernel: ReferenceKernel,
           tracer: Optional[LayerTracer]) -> Outcome:
    outcome = Outcome()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if scenario.batch_ops:
        _drive_batches(scenario, engine, shards, ops, kernel, tracer,
                       outcome)
    else:
        _drive_gets(engine, shards[0].machine, ops, kernel, tracer, outcome)
    outcome.wall_s = (time.perf_counter() - wall0
                      - sum(outcome.unit_wall_ns) * 1e-9)
    outcome.cpu_s = (time.process_time() - cpu0
                     - sum(outcome.unit_cpu_ns) * 1e-9)
    return outcome


def _drive_gets(engine: Engine, machine, ops: Sequence[BatchOp],
                kernel: ReferenceKernel, tracer: Optional[LayerTracer],
                outcome: Outcome) -> None:
    get = engine.get
    window = machine.latency_window
    results = outcome.results
    latencies = outcome.latencies_us
    wall_ns, cpu_ns = time.perf_counter_ns, time.process_time_ns
    for start in range(0, len(ops), GET_CHUNK_OPS):
        if tracer is not None and start % SAMPLE_EVERY_OPS == 0:
            tracer.sample_next(start)
        chunk_wall0, chunk_cpu0 = wall_ns(), cpu_ns()
        for __, key, __ in ops[start:start + GET_CHUNK_OPS]:
            cpu0, svc0 = window()
            try:
                results.append(get(key))
            except Exception:   # a failed op is counted, not fatal
                results.append(FAILED)
            cpu1, svc1 = window()
            latencies.append((cpu1 - cpu0) + (svc1 - svc0))
        _close_chunk(outcome, kernel, chunk_wall0, chunk_cpu0)


def _close_chunk(outcome: Outcome, kernel: ReferenceKernel,
                 chunk_wall0: int, chunk_cpu0: int) -> None:
    """Stamp the end of a chunk, then time one reference unit."""
    wall_ns, cpu_ns = time.perf_counter_ns, time.process_time_ns
    chunk_cpu1, chunk_wall1 = cpu_ns(), wall_ns()
    kernel.unit()
    unit_wall1, unit_cpu1 = wall_ns(), cpu_ns()
    outcome.chunk_wall_ns.append(chunk_wall1 - chunk_wall0)
    outcome.chunk_cpu_ns.append(chunk_cpu1 - chunk_cpu0)
    outcome.unit_wall_ns.append(unit_wall1 - chunk_wall1)
    outcome.unit_cpu_ns.append(unit_cpu1 - chunk_cpu1)


def _drive_batches(scenario: Scenario, engine: Engine,
                   shards: Sequence[DeuteronomyEngine],
                   ops: Sequence[BatchOp], kernel: ReferenceKernel,
                   tracer: Optional[LayerTracer],
                   outcome: Outcome) -> None:
    size = scenario.batch_ops
    sample_every = max(SAMPLE_EVERY_OPS // size, 1)
    maintenance_every = scenario.maintenance_every
    latency_windows = [shard.machine.latency_window for shard in shards]
    wall_ns, cpu_ns = time.perf_counter_ns, time.process_time_ns
    for index, start in enumerate(range(0, len(ops), size)):
        batch = ops[start:start + size]
        if tracer is not None and index % sample_every == 0:
            tracer.sample_next(start)
        chunk_wall0, chunk_cpu0 = wall_ns(), cpu_ns()
        before = [window() for window in latency_windows]
        try:
            outcome.results.extend(engine.apply_batch(batch))
        except Exception:   # every op of a failed batch is counted
            outcome.results.extend([FAILED] * len(batch))
        # A batch completes when its slowest shard does.
        latency = max(
            (cpu1 - cpu0) + (svc1 - svc0)
            for (cpu0, svc0), (cpu1, svc1)
            in zip(before, (window() for window in latency_windows))
        )
        outcome.latencies_us.extend([latency] * len(batch))
        _close_chunk(outcome, kernel, chunk_wall0, chunk_cpu0)
        if maintenance_every and (index + 1) % maintenance_every == 0:
            engine.checkpoint()
            engine.collect_garbage()
    if isinstance(engine, ShardedEngine):
        # The async numbers must describe durable commits.
        engine.drain_commits()


def _replay(model: Dict[bytes, bytes], ops: Sequence[BatchOp],
            results: Sequence[object]) -> int:
    """Replay ``ops`` on the plain-dict oracle; returns wrong results.

    Sequential replay makes a read inside a batch see the batch's
    earlier writes, which is the engine's contract too.
    """
    failed = len(ops) - len(results) if len(results) < len(ops) else 0
    for (kind, key, value), got in zip(ops, results):
        if kind == "get":
            expected = model.get(key)
        else:
            model[key] = value
            expected = None
        if got is FAILED or got != expected:
            failed += 1
    return failed


# ----------------------------------------------------------------------
# counters read from public attributes
# ----------------------------------------------------------------------

def _raw_counts(shards: Sequence[DeuteronomyEngine]) -> Dict[str, float]:
    """Cumulative counters, summed over shards.

    ``reset_accounting()`` zeroes only the machine's CPU/SSD traffic;
    component counters run from construction, so the harness snapshots
    them after warm-up and reports differences.
    """
    counts: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    for shard in shards:
        tc, dc = shard.tc, shard.dc
        for name in ("tc.reads", "tc.dc_reads", "tc.commits", "tc.aborts",
                     "tc.writes_applied", "tc.group_commits"):
            add(name, tc.counters.get(name))
        add("read_cache.hits", tc.read_cache.hits)
        add("read_cache.misses", tc.read_cache.misses)
        if tc.records is not None:
            add("record_cache.hits", tc.records.hits)
            add("record_cache.misses", tc.records.misses)
            add("record_cache.gc_relocations", tc.records.gc_relocations)
        add("recovery_log.flushes", tc.log.flushes)
        add("recovery_log.batch_appends", tc.log.batch_appends)
        pipeline = tc.pipeline
        if pipeline is not None:
            add("commit_pipeline.epochs", pipeline.epochs_closed)
            add("commit_pipeline.group_commits", pipeline.group_sizes.total)
            add("commit_pipeline.commit_wait_us", pipeline.commit_wait_us)
        for name in ("bwtree.mm_ops", "bwtree.ss_ops",
                     "bwtree.consolidations", "bwtree.leaf_splits",
                     "bwtree.blind_batches"):
            add(name, dc.counters.get(name))
        cache = dc.cache.stats
        add("page_cache.touches", cache.touches)
        add("page_cache.fetches", cache.fetches)
        add("page_cache.evictions", cache.evictions)
        add("tier_cache.demotions", cache.demotions + tc.read_cache.demotions)
        add("tier_cache.promotions",
            cache.promotions + tc.read_cache.promotions)
        add("log_store.segment_flushes", dc.store.segment_flushes)
        add("log_store.bytes_appended", dc.store.bytes_appended)
        add("gc.segments_reclaimed", dc.gc.stats.segments_cleaned)
        add("checkpoint.count", dc.checkpoints.checkpoints_written)
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_rate(misses: float, accesses: float) -> float:
    return 1.0 - misses / accesses if accesses else 0.0


def _end_to_end(prepared: Prepared, outcome: Outcome,
                steady: Tuple[float, float],
                peak_rss_kib: int) -> Dict[str, float]:
    engine = prepared.engine
    ops = len(prepared.measured)
    stats = engine.stats()
    if isinstance(engine, ShardedEngine):
        stats = stats["fleet"]
    elapsed = stats["elapsed_seconds"]
    catalog = CostCatalog()
    # Same terms as engine_bench's tiered block: capital dollars times the
    # share of the device's lifetime one op occupies.
    exec_usd = (catalog.processor_dollars * stats["core_seconds"]
                / (CORES_PER_MACHINE * ops))
    io_usd = (catalog.ssd_io_dollars
              * (stats["ssd_ios"] + stats["log_device_writes"])
              / (catalog.iops * ops))
    dram_usd = catalog.dram_per_byte * stats["dram_bytes"] * elapsed / ops
    far_tier = StorageHierarchy.cxl_2026()[1]
    tier_usd = (far_tier.dollars_per_byte * stats["tier_resident_bytes"]
                * elapsed / ops)
    steady_wall_s, steady_cpu_s = steady
    return {
        "sim_ops_per_s": _ratio(ops, elapsed),
        "sim_core_us_per_op": stats["core_seconds"] * 1e6 / ops,
        "sim_usd_per_mop": (exec_usd + io_usd + dram_usd + tier_usd) * 1e6,
        "sim_mean_latency_us": math.fsum(outcome.latencies_us) / ops,
        "host_ops_per_s": ops / steady_wall_s,
        "host_cpu_us_per_op": steady_cpu_s * 1e6 / ops,
        "host_peak_rss_mb": peak_rss_kib / 1024.0,
        "setup_s": prepared.setup_s,
    }


def _percentile(ranked: Sequence[float], q: float) -> float:
    """Nearest rank, as ``repro.hardware.metrics.Histogram`` computes it."""
    return ranked[max(0, math.ceil(q / 100.0 * len(ranked)) - 1)]


def _layer_counts(prepared: Prepared) -> Dict[str, float]:
    """Per-layer metrics that need no tracing (virtual clock and counts)."""
    engine, shards = prepared.engine, prepared.shards
    ops = len(prepared.measured)
    now = _raw_counts(shards)
    # Counters of components this configuration lacks read as zero.
    delta = collections.defaultdict(float, {
        name: value - prepared.baseline[name] for name, value in now.items()})

    sim_cpu_us: Dict[str, float] = {}
    for shard in shards:
        for name, value in shard.machine.cpu.counters.snapshot().items():
            category = name.removeprefix("cpu_us.")
            layer = COMPONENT_OF_CATEGORY.get(category, category)
            sim_cpu_us[layer] = sim_cpu_us.get(layer, 0.0) + value

    ssds = [shard.machine.ssd for shard in shards]
    ssd_ios = sum(ssd.total_ios for ssd in ssds)
    stores = [shard.dc.store for shard in shards]
    stored = sum(store.stored_bytes for store in stores)
    live = sum(store.live_bytes for store in stores)
    user_bytes = sum(len(key) + len(value)
                     for kind, key, value in prepared.measured
                     if kind == "put")
    devices = [shard.tc.pipeline.device for shard in shards
               if shard.tc.pipeline is not None]
    log_drives = {id(device.ssd): device.ssd for device in devices
                  if not device.colocated}
    shard_ops = [shard.machine.operations for shard in shards]

    layers = {
        "workloads.gen_s": prepared.gen_s,
        "workloads.load_s": prepared.load_items_s,
        "router.shard_balance": (
            _ratio(max(shard_ops), sum(shard_ops) / len(shard_ops))
            if isinstance(engine, ShardedEngine) else 0.0),
        "tc.hit_rate": _hit_rate(delta["tc.dc_reads"], delta["tc.reads"]),
        "tc.dc_reads_per_op": delta["tc.dc_reads"] / ops,
        "tc.commits": delta["tc.commits"],
        "tc.aborts": delta["tc.aborts"],
        "tc.commit_batch_mean": _ratio(delta["tc.writes_applied"],
                                       delta["tc.group_commits"]),
        "mvcc.versions_resident": sum(
            shard.tc.versions.version_count() for shard in shards),
        "read_cache.hit_rate": _ratio(
            delta["read_cache.hits"],
            delta["read_cache.hits"] + delta["read_cache.misses"]),
        "read_cache.resident_bytes": sum(
            shard.tc.read_cache.resident_bytes for shard in shards),
        "record_cache.hit_rate": _ratio(
            delta["record_cache.hits"],
            delta["record_cache.hits"] + delta["record_cache.misses"]),
        "record_cache.gc_relocations": delta["record_cache.gc_relocations"],
        "recovery_log.flushes": delta["recovery_log.flushes"],
        "recovery_log.batch_appends": delta["recovery_log.batch_appends"],
        "recovery_log.retained_bytes": sum(
            shard.tc.log.retained_bytes for shard in shards),
        "commit_pipeline.epochs": delta["commit_pipeline.epochs"],
        "commit_pipeline.group_mean": _ratio(
            delta["commit_pipeline.group_commits"],
            delta["commit_pipeline.epochs"]),
        "commit_pipeline.commit_wait_us_per_op":
            delta["commit_pipeline.commit_wait_us"] / ops,
        "bwtree.mm_ops": delta["bwtree.mm_ops"],
        "bwtree.ss_ops": delta["bwtree.ss_ops"],
        "bwtree.consolidations": delta["bwtree.consolidations"],
        "bwtree.leaf_splits": delta["bwtree.leaf_splits"],
        "bwtree.blind_batches": delta["bwtree.blind_batches"],
        "bwtree.depth": max(shard.dc.depth() for shard in shards),
        "page_cache.hit_rate": _hit_rate(delta["page_cache.fetches"],
                                         delta["page_cache.touches"]),
        "page_cache.fetches": delta["page_cache.fetches"],
        "page_cache.evictions": delta["page_cache.evictions"],
        "page_cache.resident_bytes": sum(
            shard.dc.cache.resident_bytes for shard in shards),
        "tier_cache.demotions": delta["tier_cache.demotions"],
        "tier_cache.promotions": delta["tier_cache.promotions"],
        "log_store.segment_flushes": delta["log_store.segment_flushes"],
        "log_store.bytes_appended": delta["log_store.bytes_appended"],
        "log_store.write_amp": _ratio(delta["log_store.bytes_appended"],
                                      user_bytes),
        "log_store.space_amp": _ratio(stored, live),
        "log_store.utilization": _ratio(live, stored),
        "gc.segments_reclaimed": delta["gc.segments_reclaimed"],
        "checkpoint.count": delta["checkpoint.count"],
        "ssd.ios_per_op": ssd_ios / ops,
        "ssd.read_ios": sum(ssd.counters.get("ssd.reads") for ssd in ssds),
        "ssd.write_ios": sum(ssd.counters.get("ssd.writes") for ssd in ssds),
        "ssd.sim_busy_s": sum(ssd.busy_seconds for ssd in ssds),
        "log_device.writes": sum(d.submitted_writes for d in devices),
        "log_device.bytes": sum(d.submitted_bytes for d in devices),
        "log_device.sim_busy_s": sum(
            drive.busy_seconds for drive in log_drives.values()),
        "log_device.queue_wait_us": sum(d.queue_wait_us for d in devices),
    }
    for layer in ("router", "tc", "read_cache", "record_cache",
                  "recovery_log", "commit_pipeline", "bwtree", "page_cache",
                  "log_store", "io_path"):
        layers[f"{layer}.sim_cpu_us_per_op"] = (
            sim_cpu_us.get(layer, 0.0) / ops)
    return layers


def _traced_layers(tracer: LayerTracer, sink: CountingSink, ops: int,
                   traced_wall_s: float) -> Dict[str, float]:
    """Per-layer host metrics of a traced run."""
    totals = tracer.layer_totals()
    layers: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        if layer != "driver":
            layers[f"{layer}.host_self_s"] = totals.get(
                layer, {}).get("self_s", 0.0)
    layers["driver.host_self_s"] = traced_wall_s - tracer.root_ns * 1e-9
    for layer in ("router", "engine", "tc", "bwtree"):
        layers[f"{layer}.host_calls"] = totals.get(layer, {}).get("calls", 0)
    truncate = tracer.aggregates.get("mvcc.truncate", [0, 0, 0])
    layers["mvcc.truncate_calls"] = truncate[0]
    layers["mvcc.truncate_host_s"] = truncate[1] * 1e-9
    layers["log_store.reads"] = tracer.aggregates.get(
        "log_store.read", [0])[0]
    # Every device round trip, nested in charge_round_trip or split
    # around an async ack, ends in exactly one charge_complete.
    layers["io_path.round_trips"] = tracer.aggregates.get(
        "io_path.charge_complete", [0])[0]
    layers["recovery_log.ssd_ios"] = tracer.ssd_ios.get("recovery_log", 0)
    layers["log_store.ssd_ios"] = tracer.ssd_ios.get("log_store", 0)
    layers["cpu_model.charges_per_op"] = sink.charges / ops
    return layers


# ----------------------------------------------------------------------
# durability
# ----------------------------------------------------------------------

def _check_durability(prepared: Prepared) -> Tuple[Dict[str, float], int, int]:
    """Crash, recover from flushed state only, read every written key back.

    Every write the oracle holds was acknowledged before the clock
    stopped (sync commit flushes per batch; the async fleet drained its
    pipeline), so each must be readable after recovery.  Returns
    (recovery metrics, keys read back, keys wrong).
    """
    engine, shards = prepared.engine, prepared.shards
    busy_before = sum(shard.machine.cpu.busy_us for shard in shards)
    started = time.perf_counter()
    recovered = type(engine).recover(engine)
    host_s = time.perf_counter() - started
    recovered_shards = (list(recovered.shards)
                        if isinstance(recovered, ShardedEngine)
                        else [recovered])
    busy_after = sum(shard.machine.cpu.busy_us for shard in recovered_shards)
    # Batched read-back: every autocommitted get on a recovered engine
    # pays a full version-store truncation walk, which would take longer
    # than the measured phase.
    written = sorted(prepared.written)
    wrong = 0
    for start in range(0, len(written), READ_BACK_BATCH):
        keys = written[start:start + READ_BACK_BATCH]
        try:
            values = recovered.multi_get(keys)
        except Exception:   # unreadable acked writes are failed ops
            wrong += len(keys)
            continue
        wrong += sum(value != prepared.model[key]
                     for key, value in zip(keys, values))
    metrics = {
        "recovery.host_s": host_s,
        "recovery.sim_core_us": busy_after - busy_before,
        "recovery.records_replayed": sum(
            shard.tc.counters.get("tc.redo_replayed")
            for shard in recovered_shards),
    }
    return metrics, len(written), wrong


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def run_setup_only(scenario: Scenario, seed: int) -> Dict[str, object]:
    """Set up and stop: one more sample of ``setup_s``."""
    return {"setup_s": prepare(scenario, seed).setup_s}


def run_workload(scenario: Scenario, seed: int, traced: bool = False,
                 spans_path=None) -> Dict[str, object]:
    """Set up, measure and check one workload; returns the run record.

    With ``traced`` the layer wrappers are installed before the engine is
    constructed and enabled for the measured phase only; the record then
    carries the per-layer host numbers as well.
    """
    if not traced:
        return _run(scenario, seed, None, None)
    tracer = LayerTracer()
    with installed(tracer):
        record = _run(scenario, seed, tracer, spans_path)
    return record


def _run(scenario: Scenario, seed: int, tracer: Optional[LayerTracer],
         spans_path) -> Dict[str, object]:
    prepared = prepare(scenario, seed)
    engine, shards = prepared.engine, prepared.shards
    ops = len(prepared.measured)
    sink = CountingSink()
    if tracer is not None:
        for shard in shards:
            shard.machine.cpu.sink = sink
        tracer.reset()
        tracer.enabled = True
    outcome = _drive(scenario, engine, shards, prepared.measured,
                     prepared.kernel, tracer)
    if tracer is not None:
        tracer.enabled = False
        for shard in shards:
            shard.machine.cpu.sink = None
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    steady = outcome.steady_seconds()
    end_to_end = _end_to_end(prepared, outcome, steady, peak_rss_kib)
    counted = _layer_counts(prepared)
    ranked = sorted(outcome.latencies_us)
    counted["engine.sim_p50_us"] = _percentile(ranked, 50)
    counted["engine.sim_p99_us"] = _percentile(ranked, 99)
    failed = prepared.warmup_failed + _replay(
        prepared.model, prepared.measured, outcome.results)
    attempted = ops
    recovery = {"recovery.host_s": 0.0, "recovery.sim_core_us": 0.0,
                "recovery.records_replayed": 0}
    if tracer is not None and spans_path is not None:
        tracer.write_spans(spans_path)
    if scenario.check_durability:
        recovery, read_back, wrong = _check_durability(prepared)
        attempted += read_back
        failed += wrong
    layers = {**counted, **recovery}
    if tracer is not None:
        layers.update(_traced_layers(tracer, sink, ops, outcome.wall_s))
    # What must repeat bit-for-bit on one seed, traced or not: every
    # virtual-clock metric and every count, no host-clock number.
    repeatable = {name: value for name, value in end_to_end.items()
                  if name.startswith("sim_")}
    repeatable.update(
        (name, layers[name])
        for name in (*counted, "recovery.sim_core_us",
                     "recovery.records_replayed")
        if not name.startswith("workloads."))
    repeatable.update(ops_attempted=attempted, ops_failed=failed)
    return {
        "workload": scenario.name,
        "seed": seed,
        "traced": tracer is not None,
        "sizes": {"records": scenario.records,
                  "warmup_ops": scenario.warmup_ops, "measured_ops": ops},
        "setup_parts_s": {"load_items": prepared.load_items_s,
                          "generate": prepared.gen_s,
                          "build_load_checkpoint": prepared.build_s,
                          "warmup": prepared.warmup_s},
        "measured_wall_s": outcome.wall_s,
        "steady_wall_s": steady[0],
        "speed_factor": speed_factor(outcome.unit_wall_ns),
        "latency_samples": len(outcome.latencies_us),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "end_to_end": end_to_end,
        "layers": layers,
        "repeatable": repeatable,
        "functions": (
            [list(row) for row in tracer.function_rows()]
            if tracer is not None else []),
        "violations": _violations(scenario, layers),
    }


def _violations(scenario: Scenario,
                layers: Dict[str, float]) -> List[str]:
    """The workloads exist to separate the layers; say so when one stops
    doing that (a read workload that starts flushing a log, a fleet
    metric appearing on a single engine)."""
    broken = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            broken.append(f"{scenario.name}: {message}")

    if scenario.name == "read_hot":
        require(layers["ssd.ios_per_op"] == 0, "read_hot must do no I/O")
        require(layers["recovery_log.flushes"] == 0,
                "read_hot must not flush the log")
        require(layers["mvcc.versions_resident"] == 0,
                "read_hot must leave the version store empty")
    if scenario.name == "read_cold":
        require(layers["ssd.ios_per_op"] > 0, "read_cold must do I/O")
    if not scenario.shards:
        fleet_only = [name for name in layers
                      if name.split(".")[0] in ("router", "commit_pipeline",
                                                "log_device")
                      and not name.endswith("host_self_s")]
        require(all(layers[name] == 0 for name in fleet_only),
                "fleet-only layers must be absent on a single engine")
    else:
        require(layers["log_device.writes"] > 0
                and layers["commit_pipeline.epochs"] > 0,
                "the fleet must use the commit pipeline and log device")
    return broken
