"""The four benchmark workloads: what each runs, how large, and why.

Each is a closed loop with one client on one thread: the next call is
issued only when the previous one has returned.  Sizes are calibrated so
that the measured phase lasts about ``REFERENCE_SECONDS`` on the
two-core host this benchmark was written on; ``--seconds`` scales the
measured op count linearly from there (records, caches and warm-up stay
put, so the modelled cache behaviour does not depend on run length).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from repro.bwtree.tree import BwTreeConfig
from repro.deuteronomy.engine import DeuteronomyEngine
from repro.deuteronomy.tc import TcConfig
from repro.hardware.machine import Machine
from repro.sharding.engine import ShardedEngine
from repro.workloads.ycsb import WorkloadSpec

REFERENCE_SECONDS = 5.0
CORES_PER_MACHINE = 4
BATCH_OPS = 64
#: Per-op workloads are timed in chunks of this many gets; op counts are
#: whole chunks.
GET_CHUNK_OPS = 32

Engine = Union[DeuteronomyEngine, ShardedEngine]


@dataclass(frozen=True)
class Scenario:
    name: str
    why: str
    mix: str                       # "a" (50/50 read/update) or "c" (reads)
    records: int
    warmup_ops: int
    measured_ops: int              # at REFERENCE_SECONDS
    #: Ops per ``apply_batch`` call; 0 drives per-op ``engine.get``.
    batch_ops: int = 0
    #: ``checkpoint()`` + ``collect_garbage()`` every this many batches.
    maintenance_every: int = 0
    shards: int = 0                # 0 = one DeuteronomyEngine
    page_cache_bytes: Optional[int] = None
    read_cache_bytes: Optional[int] = None
    sync_commit: bool = False
    #: Crash, recover from flushed state only, read every acked write back.
    check_durability: bool = False

    def manifest_why(self) -> str:
        """The reason plus the recorded sizes, for ``BENCHMARK.json``."""
        calls = (f"apply_batch x{self.batch_ops}" if self.batch_ops
                 else "per-op get")
        return (f"{self.why} [{self.records // 1000}k records, "
                f"{self.warmup_ops:,} warm-up + {self.measured_ops:,} "
                f"measured ops, {calls}]")

    def spec(self, seed: int) -> WorkloadSpec:
        builder = {"a": WorkloadSpec.ycsb_a, "c": WorkloadSpec.ycsb_c}
        return builder[self.mix](record_count=self.records, seed=seed)

    def sized(self, seconds: float, smoke: bool) -> "Scenario":
        """This workload at ``seconds`` of measured work.

        ``smoke`` shrinks the data (and the caches with it, so the
        cache-to-data ratio survives) to a size that exercises every
        code path in about a second.
        """
        sized = self
        if smoke:
            shrink = 10
            sized = replace(
                sized,
                records=self.records // shrink,
                warmup_ops=self.warmup_ops // shrink,
                measured_ops=self.measured_ops // shrink,
                maintenance_every=max(self.maintenance_every // shrink,
                                      1 if self.maintenance_every else 0),
                page_cache_bytes=(self.page_cache_bytes // shrink
                                  if self.page_cache_bytes else None),
                read_cache_bytes=(self.read_cache_bytes // shrink
                                  if self.read_cache_bytes else None),
            )
        step = self.batch_ops or GET_CHUNK_OPS
        scale = seconds / REFERENCE_SECONDS
        return replace(
            sized,
            warmup_ops=_round_to(sized.warmup_ops, step),
            measured_ops=_round_to(sized.measured_ops * scale, step),
        )

    def build(self) -> Tuple[Engine, List[DeuteronomyEngine]]:
        """A fresh, empty engine and the single-machine engines inside it."""
        tc_kwargs = {}
        if self.read_cache_bytes is not None:
            tc_kwargs["read_cache_bytes"] = self.read_cache_bytes
        if self.shards:
            fleet = ShardedEngine(
                self.shards,
                cores_per_shard=CORES_PER_MACHINE,
                tc_config=TcConfig(commit_pipeline=True, **tc_kwargs),
                log_topology="shared",
            )
            return fleet, list(fleet.shards)
        engine = DeuteronomyEngine(
            Machine.paper_default(cores=CORES_PER_MACHINE),
            tree_config=BwTreeConfig(
                cache_capacity_bytes=self.page_cache_bytes),
            tc_config=TcConfig(sync_commit=self.sync_commit, **tc_kwargs),
        )
        return engine, [engine]


def _round_to(value: float, step: int) -> int:
    return max(step, int(round(value / step)) * step)


SCENARIOS: List[Scenario] = [
    Scenario(
        name="read_hot",
        why=("YCSB-C over DRAM-resident data, the paper's MM operation: "
             "tc, read_cache, bwtree on cached pages; no I/O, no log, no "
             "versions"),
        mix="c", records=30_000, warmup_ops=30_000, measured_ops=300_000,
        read_cache_bytes=768 << 10,
    ),
    Scenario(
        name="read_cold",
        why=("same reads, caches a fifth of the data, the paper's MM/SS "
             "mix: page_cache fetch/evict, log_store.read, io_path, ssd"),
        mix="c", records=40_000, warmup_ops=20_000, measured_ops=80_000,
        page_cache_bytes=700 << 10, read_cache_bytes=170 << 10,
    ),
    Scenario(
        name="update_batched",
        why=("YCSB-A, sync commit, periodic checkpoint + GC, then "
             "crash and recovery: commit_batch, mvcc, log flush, blind "
             "updates, GC"),
        mix="a", records=20_000, warmup_ops=400 * BATCH_OPS,
        measured_ops=1000 * BATCH_OPS, batch_ops=BATCH_OPS,
        maintenance_every=250, sync_commit=True, check_durability=True,
    ),
    Scenario(
        name="fleet_async",
        why=("YCSB-A on 8 shards, async commit pipeline, one shared log "
             "device: the only user of router, commit epochs, log_device"),
        mix="a", records=16_000, warmup_ops=400 * BATCH_OPS,
        measured_ops=1000 * BATCH_OPS, batch_ops=BATCH_OPS, shards=8,
        check_durability=True,
    ),
]

BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}
