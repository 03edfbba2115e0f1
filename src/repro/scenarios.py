"""One way to build, drive and price a seeded run.

Every harness in this repo measures the same thing: a seeded YCSB mix
against a freshly loaded :class:`~repro.deuteronomy.engine.
DeuteronomyEngine` or :class:`~repro.sharding.engine.ShardedEngine`
fleet, accounted over a clean window and priced in the paper's
Eq. (4)-(5) terms.  :class:`Scenario` is that recipe as a frozen value,
in three steps:

* :meth:`Scenario.prepare` — spec -> engine or fleet
  (:meth:`Scenario.build`) -> bulk load -> optional checkpoint ->
  generate the measured operations -> ``reset_accounting()``; returns a
  :class:`Run`;
* :meth:`Run.drive` — replay the measured operations per-op or in
  ``apply_batch`` chunks, bracketing every call with a latency window,
  then drain the commit pipeline;
* :meth:`Run.result` — one flat record: ops, core-seconds, elapsed,
  SSD I/Os, DRAM and tier bytes, hit rates, latency percentiles and
  the :func:`~repro.core.costmeter.price_run` bill.

Callers hook in between ``prepare()`` and ``drive()``: tracers and
charge recorders attach to ``run.machines``, what-if CPU scaling goes
through ``machine.cpu.scale_costs``, and scaled devices are passed to
``prepare()`` itself.  The single-engine/fleet fork and the generator
call order (``load_items()`` -> measured ops, both from one
:class:`~repro.workloads.ycsb.WorkloadGenerator`) live here and
nowhere else.  Everything runs on virtual time: the same scenario
produces the same record, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .bwtree.tree import BwTreeConfig
from .core.costmeter import price_run
from .deuteronomy.engine import DeuteronomyEngine
from .deuteronomy.tc import TcConfig
from .frozen import check_bounds
from .hardware.cpu import CostTable, CpuModel
from .hardware.machine import Machine
from .hardware.metrics import Histogram
from .hardware.ssd import SsdSpec
from .hardware.tiers import StorageHierarchy
from .sharding.engine import LOG_TOPOLOGIES, ShardedEngine
from .workloads.ycsb import (
    OpKind,
    Operation,
    WorkloadGenerator,
    WorkloadSpec,
    partition_operations,
    shard_balance,
)

MIX_BUILDERS = {
    "a": WorkloadSpec.ycsb_a,   # 50/50 read/update — the group-commit case
    "b": WorkloadSpec.ycsb_b,   # 95/5 read-mostly
    "c": WorkloadSpec.ycsb_c,   # 100% reads
}

#: The two commit modes the tracked studies compare: flush per commit
#: batch, and the asynchronous epoch pipeline at its default window.
SYNC_COMMIT = TcConfig(sync_commit=True)
ASYNC_COMMIT = TcConfig(commit_pipeline=True)


@dataclass(frozen=True)
class Scenario:
    """One seeded run: workload mix + engine/fleet shape."""

    seed: int = 7
    mix: str = "a"
    record_count: int = 400
    op_count: int = 1200
    #: 0 = one bare engine (no router); N >= 1 = an N-shard fleet behind
    #: the hash router (a fleet of one still pays the routing charges —
    #: the baseline of every scaling curve).
    shards: int = 0
    #: Operations per ``apply_batch`` call; 0 or 1 replays per-op.
    batch_size: int = 16
    #: Cores per machine (per shard in a fleet).
    cores: int = 4
    tc_config: TcConfig = SYNC_COMMIT
    tree_config: BwTreeConfig = BwTreeConfig()
    log_topology: str = "colocated"
    #: Checkpoint after loading, so evicted pages really live on flash.
    checkpoint: bool = False

    BOUNDS = {
        "seed": WorkloadSpec.BOUNDS["seed"],
        "record_count": WorkloadSpec.BOUNDS["record_count"],
        "op_count": (1, math.inf), "shards": (0, math.inf),
        "batch_size": (0, math.inf), "cores": CpuModel.BOUNDS["cores"],
    }

    def __post_init__(self) -> None:
        if self.mix not in MIX_BUILDERS:
            raise ValueError(f"unknown mix {self.mix!r}; "
                             f"expected one of {sorted(MIX_BUILDERS)}")
        check_bounds(self)
        if self.log_topology not in LOG_TOPOLOGIES:
            raise ValueError(
                f"unknown log topology {self.log_topology!r}; "
                f"expected one of {LOG_TOPOLOGIES}"
            )
        if self.log_topology != "colocated" and not self.shards:
            # The bare-engine path builds no ShardedEngine; the pipeline
            # and log_ssd_spec rules are the fleet constructor's own and
            # surface from prepare().
            raise ValueError(
                "non-colocated log topologies require a fleet, not a "
                "bare engine"
            )

    @property
    def commit(self) -> str:
        """The commit mode's name: ``sync`` (flush per commit batch),
        ``async`` (epoch pipeline) or ``periodic`` (durability left to
        checkpoints)."""
        if self.tc_config.commit_pipeline:
            return "async"
        return "sync" if self.tc_config.sync_commit else "periodic"

    def spec(self) -> WorkloadSpec:
        return MIX_BUILDERS[self.mix](record_count=self.record_count,
                                      seed=self.seed)

    def build(self, ssd_spec: Optional[SsdSpec] = None,
              log_ssd_spec: Optional[SsdSpec] = None) -> "Run":
        """The engine or fleet, built and empty: a :class:`Run` with no
        operations yet.

        ``ssd_spec`` builds every machine's drive from that spec instead
        of the paper default; ``log_ssd_spec`` does the same for the
        shared commit-log drive of a fleet (the what-if profiler's device
        scaling).
        """
        def machine() -> Machine:
            return Machine(cores=self.cores, cost_table=CostTable(),
                           ssd_spec=ssd_spec)

        if self.shards:
            fleet = ShardedEngine(
                self.shards,
                tree_config=self.tree_config,
                tc_config=self.tc_config,
                machine_factory=machine,
                log_topology=self.log_topology,
                log_ssd_spec=log_ssd_spec,
            )
            return Run(self, fleet, list(fleet.shards))
        if log_ssd_spec is not None:
            raise ValueError(
                "a log_ssd_spec needs a fleet on the shared log "
                "topology, not a bare engine"
            )
        engine = DeuteronomyEngine(machine(), tree_config=self.tree_config,
                                   tc_config=self.tc_config)
        return Run(self, engine, [engine])

    def prepare(self, ssd_spec: Optional[SsdSpec] = None,
                log_ssd_spec: Optional[SsdSpec] = None) -> "Run":
        """Build (:meth:`build`, which takes the same device specs),
        load, (checkpoint) and reset: a :class:`Run` whose accounting
        window starts clean."""
        run = self.build(ssd_spec, log_ssd_spec)
        generator = WorkloadGenerator(self.spec())
        run.engine.bulk_load(generator.load_items())
        if self.checkpoint:
            run.engine.checkpoint()
        run.ops = list(generator.operations(self.op_count))
        for shard_machine in run.machines:
            shard_machine.reset_accounting()
        return run

    def measure(self) -> Dict[str, object]:
        """Prepare, drive and return the result record in one call."""
        run = self.prepare()
        run.drive()
        return run.result()


def batch_item(op: Operation) -> Tuple[str, bytes, Optional[bytes]]:
    """One generated operation as an ``apply_batch`` tuple."""
    if op.kind is OpKind.READ:
        return ("get", op.key, None)
    return ("put", op.key, op.value)


def fleet_totals(stats: dict) -> dict:
    """The additive totals of a ``stats()`` dict: a fleet's ``fleet``
    sub-dict, or a bare engine's flat dict as it stands."""
    return stats["fleet"] if "fleet" in stats else stats


class Run:
    """A prepared scenario: the engine (or fleet) facade, the shard
    engines behind it, and the operations about to be measured."""

    def __init__(self, scenario: Scenario, engine,
                 shards: List[DeuteronomyEngine]) -> None:
        self.scenario = scenario
        self.engine = engine
        self.shards = shards
        #: The measured operation stream, generated after the load.
        self.ops: List[Operation] = []
        #: Per-operation latency over the measured window: execution
        #: plus device service time of the call that carried the op.
        self.latencies = Histogram("op_latency_us")

    @property
    def machines(self) -> List[Machine]:
        return [shard.machine for shard in self.shards]

    def drive(self) -> None:
        """Replay the measured operations per-op or in ``apply_batch``
        chunks, then resolve every in-flight commit epoch so the
        accounting describes *durable* commits (a no-op for engines
        without the pipeline).

        Group commit holds every request until the batch commits, so
        each op in a batch observes the whole batch's latency; shards
        run in parallel, so a call's latency is its slowest shard's.
        """
        engine = self.engine
        machines = self.machines
        ops = self.ops
        latencies = self.latencies
        batch_size = max(self.scenario.batch_size, 1)
        for start in range(0, len(ops), batch_size):
            chunk = ops[start:start + batch_size]
            before = [m.latency_window() for m in machines]
            if batch_size > 1:
                engine.apply_batch([batch_item(op) for op in chunk])
            elif chunk[0].kind is OpKind.READ:
                engine.get(chunk[0].key)
            else:
                engine.put(chunk[0].key, chunk[0].value)
            after = [m.latency_window() for m in machines]
            latency = max(
                (cpu1 - cpu0) + (svc1 - svc0)
                for (cpu0, svc0), (cpu1, svc1) in zip(before, after)
            )
            for __ in chunk:
                latencies.observe(latency)
        for shard in self.shards:
            if shard.tc.pipeline is not None:
                shard.tc.pipeline.force()

    def result(self) -> Dict[str, object]:
        """The run as one flat record (same key set for every scenario).

        Rates are per *measured* operation.  The bill prices everything
        the run used: see :func:`~repro.core.costmeter.price_run`.
        """
        scenario = self.scenario
        ops = scenario.op_count
        totals = fleet_totals(self.engine.stats())
        elapsed = totals["elapsed_seconds"]
        pipelines = [shard.tc.pipeline for shard in self.shards
                     if shard.tc.pipeline is not None]
        groups = sum(p.group_sizes.count for p in pipelines)
        # Colocated log writes already land on the data SSD (counted in
        # ssd_ios); the shared drive bills its own writes.
        log_writes = (totals["log_device_writes"]
                      if scenario.log_topology != "colocated" else 0)
        # Demote-not-drop parks victims in the first far tier of the
        # cxl_2026 hierarchy; its residency rents at that tier's $/byte.
        far_tier = StorageHierarchy.cxl_2026()[1]
        price = price_run(
            ops=ops,
            cores=scenario.cores,
            core_seconds=totals["core_seconds"],
            elapsed_seconds=elapsed,
            ssd_ios=totals["ssd_ios"],
            dram_bytes=totals["dram_bytes"],
            log_device_writes=log_writes,
            tier_bytes=totals["tier_resident_bytes"],
            tier_dollars_per_byte=far_tier.dollars_per_byte,
        )
        balance = 1.0
        if scenario.shards:
            balance = shard_balance(partition_operations(
                iter(self.ops), scenario.shards,
                lambda key, __n: self.engine.shard_for(key)))
        return {
            "workload": f"ycsb-{scenario.mix}",
            "shards": scenario.shards,
            "commit": scenario.commit,
            "log_topology": scenario.log_topology,
            "batch_size": scenario.batch_size,
            "operations": ops,
            "core_seconds": totals["core_seconds"],
            "elapsed_seconds": elapsed,
            "ops_per_sec": (ops / elapsed) if elapsed else 0.0,
            "core_us_per_op": totals["core_seconds"] * 1e6 / ops,
            "p50_latency_us": self.latencies.percentile(50),
            "p99_latency_us": self.latencies.percentile(99),
            "io_bound": any(m.summary().io_bound for m in self.machines),
            "ssd_ios": totals["ssd_ios"],
            "dram_bytes": totals["dram_bytes"],
            "record_heap_bytes": totals["record_heap_bytes"],
            "tier_resident_bytes": totals["tier_resident_bytes"],
            "tc_hit_rate": totals["tc_hit_rate"],
            "read_cache_hit_rate": totals["read_cache_hit_rate"],
            "record_cache_hit_rate": totals["record_cache_hit_rate"],
            "page_cache_hit_rate": totals["page_cache_hit_rate"],
            "record_cache_gc_relocations":
                totals["record_cache_gc_relocations"],
            "demotions": totals["page_cache_demotions"],
            "promotions": totals["page_cache_promotions"],
            "log_flushes": totals["log_flushes"],
            "log_batch_appends": totals["log_batch_appends"],
            "log_device_writes": totals["log_device_writes"],
            "commit_epochs": totals["commit_epochs"],
            "commit_wait_us": totals["commit_wait_us"],
            "commit_group_mean": (
                sum(p.group_sizes.total for p in pipelines) / groups
                if groups else 0.0),
            "commit_group_max": max(
                (p.group_sizes.maximum for p in pipelines), default=0.0),
            "shard_balance": balance,
            "exec_dollars_per_op": price.exec_dollars_per_op,
            "io_dollars_per_op": price.io_dollars_per_op,
            "log_io_dollars_per_op": price.log_io_dollars_per_op,
            "dram_dollars_per_op": price.dram_dollars_per_op,
            "tier_dollars_per_op": price.tier_dollars_per_op,
            "dollars_per_op": price.dollars_per_op,
        }
