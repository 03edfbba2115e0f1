"""ShardedEngine: hash-partitioned fleet of DeuteronomyEngine shards.

The paper prices throughput per core-second and DRAM byte (Eqs. 1-5);
scaling "heavy traffic" past one engine means running many independent
engines over partitioned keyspaces, the way Deuteronomy's TC/DC split
was built to scale out.  Each shard here is a full
:class:`DeuteronomyEngine` — its own simulated machine, Bw-tree,
recovery log and read cache — so shards share no state and the fleet's
cost accounting is the sum of the shards'.

The batched API is scatter/gather: one input batch fans out once into
per-shard sub-batches, each shard runs its sub-batch through its own
group-commit path (one log append, one flush decision per shard), and
the per-shard results merge back in input order.  The PR-1 durability
contract holds per shard: each shard's durable log is a prefix of its
append order, and :meth:`ShardedEngine.recover` rebuilds every shard
plus an identically-routing router.

Dispatch is sequential in ascending shard id — the only dispatch there
is.  Concurrency is priced on the virtual clock (``concurrency_mode``
cost terms, ``elapsed_seconds`` as the max over shards), never bought
with host threads, so a fleet-wide fault plan sees one deterministic
hit order and a crash between sub-batches leaves exactly the
lower-numbered shards applied.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..bwtree.tree import BwTreeConfig
from ..deuteronomy.engine import STATS, DeuteronomyEngine
from ..deuteronomy.tc import TcConfig, check_batch
from ..frozen import check_bounds
from ..hardware.cpu import CpuModel
from ..hardware.logdevice import LogDevice
from ..hardware.machine import Machine
from ..hardware.metrics import CounterSet
from ..hardware.ssd import SimulatedSsd, SsdSpec
from .router import ShardRouter

# Where commit-pipeline log writes land, the costed hardware axis of the
# five-minute-rule revisit: "colocated" shares each shard's data SSD,
# "shared" funnels every shard through one log SSD (one drive's capital
# cost, fleet elapsed floored by its total busy time).
LOG_TOPOLOGIES = ("colocated", "shared")


class ShardedEngine:
    """N independent engine shards behind a hash router."""

    BOUNDS = {"cores_per_shard": CpuModel.BOUNDS["cores"]}

    def __init__(
        self,
        num_shards: int,
        cores_per_shard: int = 4,
        tree_config: Optional[BwTreeConfig] = None,
        tc_config: Optional[TcConfig] = None,
        machine_factory: Optional[Callable[[], Machine]] = None,
        log_topology: str = "colocated",
        log_ssd_spec: Optional[SsdSpec] = None,
        _shards: Optional[Sequence[DeuteronomyEngine]] = None,
    ) -> None:
        check_bounds(ShardedEngine, cores_per_shard=cores_per_shard)
        if log_topology not in LOG_TOPOLOGIES:
            raise ValueError(
                f"unknown log topology {log_topology!r}; "
                f"expected one of {LOG_TOPOLOGIES}"
            )
        if log_topology == "colocated" and log_ssd_spec is not None:
            raise ValueError(
                "log_ssd_spec needs a log drive of its own (log_topology "
                "'shared'); colocated log writes land on each shard's "
                "data SSD"
            )
        self.router = ShardRouter(num_shards)
        self.log_topology = log_topology
        # Device spec for the shared log drive; None mirrors the shard
        # data-SSD spec.  The what-if profiler passes a scaled
        # spec here to speed up *only* the commit-log device.
        self._log_ssd_spec = log_ssd_spec
        # The single drive behind every shard's queue under "shared"
        # (None otherwise); its busy seconds floor fleet elapsed time.
        self._shared_log_ssd: Optional[SimulatedSsd] = None
        self.counters = CounterSet()
        if _shards is not None:
            if len(_shards) != num_shards:
                raise ValueError(
                    f"{len(_shards)} shards given for num_shards="
                    f"{num_shards}"
                )
            self.shards: List[DeuteronomyEngine] = list(_shards)
        else:
            factory = machine_factory if machine_factory is not None else (
                lambda: Machine.paper_default(cores=cores_per_shard)
            )
            self.shards = []
            for __ in range(num_shards):
                machine = factory()
                self.shards.append(
                    DeuteronomyEngine(
                        machine, tree_config=tree_config,
                        tc_config=tc_config,
                        log_device=self._build_log_device(machine,
                                                          tc_config),
                    )
                )
        # Each shard's routing hash, counted per key, priced on its
        # machine (a recovered shard keeps its machine).
        self._route = [shard.machine.cpu.plan("router", then="hash_probe")
                       for shard in self.shards]
        # The smallest shard log buffer: a batch holding a redo record
        # larger than it is refused before any shard runs.
        self._log_buffer_bytes = min(shard.tc.config.log_buffer_bytes
                                     for shard in self.shards)
        self._recovered_into: Optional["ShardedEngine"] = None

    def _build_log_device(
        self, machine: Machine, tc_config: Optional[TcConfig],
    ) -> Optional[LogDevice]:
        """The shard's commit-log device under the chosen topology.

        Returns None under "colocated": a pipelined TC then builds its
        own queue over the shard's data SSD.  "shared" exists only as a
        commit-pipeline device, so asking for it without the pipeline is
        an error, not a silently colocated fleet.
        """
        if self.log_topology == "colocated":
            return None
        if tc_config is None or not tc_config.commit_pipeline:
            raise ValueError(
                f"log topology {self.log_topology!r} requires the commit "
                "pipeline (TcConfig(commit_pipeline=True)); without it "
                "the fleet would run colocated"
            )
        if self._shared_log_ssd is None:
            spec = (self._log_ssd_spec if self._log_ssd_spec is not None
                    else machine.ssd.spec)
            self._shared_log_ssd = SimulatedSsd(spec)
        return LogDevice(self._shared_log_ssd, machine.clock,
                         colocated=False)

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def shared_log_busy_seconds(self) -> float:
        """Busy seconds of the one shared log drive (0.0 outside the
        "shared" topology) — the fleet elapsed floor :meth:`stats`
        applies, exposed for the what-if profiler's predictions."""
        if self._shared_log_ssd is None:
            return 0.0
        return self._shared_log_ssd.busy_seconds

    # --- routing ------------------------------------------------------

    def shard_for(self, key: bytes) -> int:
        """The shard index owning ``key`` (exposed for tests/benchmarks)."""
        return self.router.shard_for(key)

    def _shard_of(self, key: bytes) -> DeuteronomyEngine:
        shard_id = self.router.shard_for(key)
        shard = self.shards[shard_id]
        # The routing hash is real per-operation work; charge it to the
        # owning shard so fleet core-seconds include the router.
        shard.machine.cpu.bill(self._route[shard_id])
        self.counters.add("router.routed_ops")
        return shard

    # --- single-key API -----------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Autocommitted snapshot read on the owning shard."""
        return self._shard_of(key).get(key)

    def put(self, key: bytes, value: bytes) -> None:
        """Autocommitted single-key update on the owning shard."""
        self._shard_of(key).put(key, value)

    def delete(self, key: bytes) -> None:
        """Autocommitted single-key delete on the owning shard."""
        self._shard_of(key).delete(key)

    # --- batched scatter/gather API -----------------------------------

    def multi_get(self, keys: Iterable[bytes]) -> List[Optional[bytes]]:
        """Batched reads: a batch of gets, one snapshot per involved
        shard (shards have independent clocks, so there is no
        cross-shard snapshot, the usual contract of hash-sharded
        stores)."""
        return self.apply_batch([("get", key, None) for key in keys])

    def apply_batch(
        self, ops: Iterable[Tuple[str, bytes, Optional[bytes]]],
    ) -> List[Optional[bytes]]:
        """Mixed get/put/delete batch, scatter/gathered by key.

        The batch fans out by shard, each sub-batch runs in ascending
        shard id as one transaction through that shard's group commit,
        and the results merge back in input order.  Reads see the
        batch's earlier writes *to keys of the same shard* — with hash
        routing that is every earlier write to the same key, which is
        what read-your-batch-writes requires.  Every op is checked
        (:func:`~repro.deuteronomy.tc.check_batch`, its redo record
        against every shard's log buffer) before any shard runs, so a bad
        op refuses the whole batch instead of leaving the shards before
        it committed.
        """
        ops = list(ops)
        per_shard, positions = self.router.scatter(
            ops, check_batch(ops, self._log_buffer_bytes))
        results: List[list] = []
        result_positions: List[List[int]] = []
        for shard_id, sub_batch in enumerate(per_shard):
            if not sub_batch:
                continue
            shard = self.shards[shard_id]
            machine = shard.machine
            machine.cpu.bill(self._route[shard_id], len(sub_batch))
            faults = machine.faults
            if faults is not None:
                # A crash here models a fleet-wide power loss between
                # shard sub-batches: earlier shards committed (and
                # possibly flushed), later shards never saw the batch.
                # A fleet-wide plan points every shard machine at one
                # injector, so the hits keep one order.
                faults.hit("sharded.apply_batch.boundary")
            # Shard-local span: the scatter's router hashing is charged
            # before the span opens and shows up as the tracer's
            # unattributed "router" bucket by design.
            tracer = machine.tracer
            if tracer is not None:
                tracer.open_span("shard.batch", "sharding")
            try:
                results.append(shard.apply_batch(sub_batch))
            finally:
                if tracer is not None:
                    tracer.close_span()
            result_positions.append(positions[shard_id])
        counts = self.counters.counts
        counts["router.batches"] += 1.0
        counts["router.routed_ops"] += len(ops)
        return self.router.gather(len(ops), results, result_positions)

    # --- load / maintenance -------------------------------------------

    def bulk_load(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Partition a key-ordered load stream and bulk-load every shard.

        Each shard receives the subsequence of items it owns (still in
        key order, as bulk load requires).  Returns total records loaded.
        """
        per_shard: List[List[Tuple[bytes, bytes]]] = [
            [] for __ in range(self.num_shards)
        ]
        total = 0
        for key, value in items:
            per_shard[self.router.shard_for(key)].append((key, value))
            total += 1
        for shard, shard_items in zip(self.shards, per_shard):
            if shard_items:
                shard.bulk_load(shard_items)
        return total

    # All simulated cost lives in DeuteronomyEngine.checkpoint, charged
    # to each shard's own machine; the fleet adds no work of its own.
    def checkpoint(self) -> None:  # repro: ignore[cost-accounting]
        """Flush every shard's log and dirty pages (fleet-wide WAL point)."""
        for shard in self.shards:
            shard.checkpoint()

    def drain_commits(self) -> None:
        """Drain every shard's commit pipeline (no-op for sync shards).

        Batches deliberately leave flushes in flight — shard *k+1*
        executes its sub-batch while shard *k*'s epoch flush is still
        waiting for its ack, which is the pipelining that breaks the
        per-batch flush barrier — so a benchmark (or any caller that
        wants every commit future resolved) ends its run here.  Sync
        shards are untouched: their commit path already flushed, and
        flushing again would add device writes the synchronous baseline
        never paid.
        """
        for shard in self.shards:
            pipeline = shard.tc.pipeline
            if pipeline is not None:
                pipeline.force()

    def reset_accounting(self) -> None:
        """Zero every shard machine's traffic counters (post-warmup)."""
        for shard in self.shards:
            shard.machine.reset_accounting()

    # --- recovery ------------------------------------------------------

    @classmethod
    def recover(cls, crashed: "ShardedEngine") -> "ShardedEngine":
        """Rebuild every shard after a fleet-wide power loss.

        Shards recover independently (each from its own checkpoint +
        durable redo log, the per-shard PR-1 contract) and the new
        router partitions identically — the hash is process-independent
        — so every record recovers onto the shard that owns its key.
        Idempotent like :meth:`DeuteronomyEngine.recover`: repeat calls
        return the fleet the first call built.
        """
        if crashed._recovered_into is not None:
            return crashed._recovered_into
        # The new fleet owns the log drives, so it has to exist before
        # the shards can recover onto them: adopt the crashed shards,
        # then swap each for its replacement.  Writes still queued on
        # the old drives were never acked and are lost with them.
        engine = cls(
            crashed.num_shards,
            log_topology=crashed.log_topology,
            log_ssd_spec=crashed._log_ssd_spec,
            _shards=crashed.shards,
        )
        engine.shards = [
            DeuteronomyEngine.recover(
                shard,
                log_device=engine._build_log_device(shard.machine,
                                                    shard.tc.config),
            )
            for shard in crashed.shards
        ]
        crashed._recovered_into = engine
        return engine

    # --- aggregated accounting ----------------------------------------

    def stats(self) -> dict:
        """Fleet-level cost/cache accounting.

        ``fleet`` folds every shard's ``stats()`` row by row, each by
        its :data:`~repro.deuteronomy.engine.STATS` kind: counters and
        levels sum, so the paper's Eq. 4-5 pricing applies to the fleet
        (core seconds and DRAM bytes are totals over all shard
        machines); rates are re-read from the sums, so they are
        traffic-weighted; ``elapsed_seconds`` is the *maximum* — shards
        run in parallel, so the slowest shard bounds fleet virtual time.
        """
        per_shard = [shard.stats() for shard in self.shards]
        fleet: dict = {}
        for name, kind, read in STATS:
            if kind == "ratio":
                fleet[name] = read(fleet)
            elif kind == "max":
                fleet[name] = max(stats[name] for stats in per_shard)
            else:
                fleet[name] = sum(stats[name] for stats in per_shard)
        if self._shared_log_ssd is not None:
            # One drive serves every shard's commit log: its total busy
            # time is a fleet-wide serial floor no amount of shard
            # parallelism can hide.
            fleet["elapsed_seconds"] = max(
                fleet["elapsed_seconds"],
                self._shared_log_ssd.busy_seconds,
            )
        return {
            "num_shards": self.num_shards,
            "log_topology": self.log_topology,
            "routed_ops": self.counters.get("router.routed_ops"),
            "routed_batches": self.counters.get("router.batches"),
            "fleet": fleet,
            "per_shard": per_shard,
        }
