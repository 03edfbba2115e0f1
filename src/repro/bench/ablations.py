"""Ablation experiments for the Section 6-7 mechanisms (A1-A5).

These quantify the design choices DESIGN.md calls out: log-structured
variable/delta writes, blind updates, record caching, the falling price of
SSD IOPS, and garbage-collection policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..bwtree.tree import BwTree, BwTreeConfig
from ..core.breakeven import breakeven_interval_seconds, iops_price_sweep
from ..core.catalog import CostCatalog
from ..core.costmodel import (
    Advisor,
    CostLine,
    OperationCostModel,
    crossover,
    logspace_rates,
)
from ..core.technology import (
    CmmParameters,
    HddParameters,
    NvramParameters,
    cmm_line,
    hdd_breakeven_interval_seconds,
    hdd_viability,
    nvm_line,
    nvram_in_ssd_savings_fraction,
)
from ..hardware.machine import Machine
from ..workloads.ycsb import (
    WorkloadGenerator,
    WorkloadSpec,
    apply_operations,
)
from .reporting import format_table


def _loaded_tree(machine: Machine, config: BwTreeConfig,
                 spec: WorkloadSpec) -> BwTree:
    tree = BwTree(machine, config)
    for key, value in WorkloadGenerator(spec).load_items():
        tree.upsert(key, value)
    tree.checkpoint()
    return tree


# ----------------------------------------------------------------------
# A1 — log-structuring: fixed blocks vs variable pages vs delta flushes
# ----------------------------------------------------------------------

@dataclass
class A1Result:
    """Flash write traffic for the same update stream, three flush modes."""

    update_count: int
    logical_bytes: int           # bytes of user data updated
    fixed_block_bytes: int       # classic 4 KB-block store estimate
    full_page_bytes: int         # variable-size full images
    delta_bytes: int             # delta-only images (Figure 5)

    @property
    def amp_fixed(self) -> float:
        return self.fixed_block_bytes / max(1, self.logical_bytes)

    @property
    def amp_full(self) -> float:
        return self.full_page_bytes / max(1, self.logical_bytes)

    @property
    def amp_delta(self) -> float:
        return self.delta_bytes / max(1, self.logical_bytes)

    def shape_ok(self) -> bool:
        """Each refinement strictly reduces write traffic."""
        return (self.fixed_block_bytes > self.full_page_bytes
                > self.delta_bytes > 0)

    def render(self) -> str:
        rows = [
            ["fixed 4 KB blocks", f"{self.fixed_block_bytes:,}",
             f"{self.amp_fixed:.1f}x"],
            ["variable-size pages", f"{self.full_page_bytes:,}",
             f"{self.amp_full:.1f}x"],
            ["delta-only images", f"{self.delta_bytes:,}",
             f"{self.amp_delta:.1f}x"],
        ]
        return format_table(
            ["flush policy", "flash bytes written", "write amplification"],
            rows,
            title=(
                f"A1: write traffic for {self.update_count:,} updates "
                f"({self.logical_bytes:,} logical bytes) — paper Figure 5"
            ),
        )


def ablation_a1(record_count: int = 4_000, updates: int = 6_000,
                cache_fraction: float = 0.3,
                value_bytes: int = 100) -> A1Result:
    """Run the same zipfian update stream under each flush policy."""
    spec = WorkloadSpec(record_count=record_count, value_bytes=value_bytes,
                        read_fraction=0.0, update_fraction=1.0,
                        name="a1")
    results = {}
    flush_counts = {}
    for mode, max_fragments, consolidate in (("full", 1, 8),
                                             ("delta", 8, 24)):
        machine = Machine.paper_default(cores=1)
        config = BwTreeConfig(
            segment_bytes=1 << 18,
            max_flash_fragments=max_fragments,
            consolidate_threshold=consolidate,
        )
        tree = _loaded_tree(machine, config, spec)
        capacity = int(
            tree.average_leaf_bytes() * len(tree.mapping_table)
            * cache_fraction
        )
        tree.cache.capacity_bytes = capacity
        tree.cache.ensure_capacity()
        baseline_bytes = tree.cache.stats.bytes_flushed
        baseline_flushes = (tree.cache.stats.flushes_full
                            + tree.cache.stats.flushes_delta)
        generator = WorkloadGenerator(spec)
        apply_operations(tree, generator.operations(updates))
        tree.checkpoint()
        results[mode] = tree.cache.stats.bytes_flushed - baseline_bytes
        flush_counts[mode] = (
            tree.cache.stats.flushes_full + tree.cache.stats.flushes_delta
            - baseline_flushes
        )
    logical = updates * (value_bytes + 14)   # value + key bytes touched
    fixed = flush_counts["full"] * 4096
    return A1Result(
        update_count=updates,
        logical_bytes=logical,
        fixed_block_bytes=fixed,
        full_page_bytes=results["full"],
        delta_bytes=results["delta"],
    )


# ----------------------------------------------------------------------
# A2 — blind updates avoid read I/O entirely
# ----------------------------------------------------------------------

@dataclass
class A2Result:
    updates: int
    blind_ios: int
    read_modify_write_ios: int

    def shape_ok(self) -> bool:
        """Blind updates do ~no I/O; RMW on a cold cache does plenty."""
        return (self.blind_ios <= self.updates * 0.02
                and self.read_modify_write_ios > self.updates * 0.5)

    def render(self) -> str:
        rows = [
            ["blind upsert (delta post)", f"{self.blind_ios:,}",
             f"{self.blind_ios / self.updates:.4f}"],
            ["read-modify-write", f"{self.read_modify_write_ios:,}",
             f"{self.read_modify_write_ios / self.updates:.4f}"],
        ]
        return format_table(
            ["update path", "read I/Os", "I/Os per update"], rows,
            title=(
                f"A2: I/O for {self.updates:,} updates to a cold store "
                "— paper Section 6.2"
            ),
        )


def ablation_a2(record_count: int = 4_000, updates: int = 2_000) -> A2Result:
    spec = WorkloadSpec(record_count=record_count, distribution="uniform",
                        name="a2")

    def cold_tree() -> tuple:
        machine = Machine.paper_default(cores=1)
        tree = _loaded_tree(
            machine, BwTreeConfig(segment_bytes=1 << 18), spec
        )
        # Evict everything: every page is cold.
        tree.cache.capacity_bytes = 16 * 1024
        tree.cache.ensure_capacity()
        machine.reset_accounting()
        return machine, tree

    generator = WorkloadGenerator(spec)
    ops = list(generator.operations(updates))

    machine, tree = cold_tree()
    blind_ios = 0
    for op in ops:
        value = op.value if op.value is not None else b"v"
        blind_ios += tree.upsert(op.key, value).ios
    del machine

    machine2, tree2 = cold_tree()
    rmw_ios = 0
    for op in ops:
        value = op.value if op.value is not None else b"v"
        rmw_ios += tree2.get_with_stats(op.key).ios
        rmw_ios += tree2.upsert(op.key, value).ios
    del machine2

    return A2Result(updates=updates, blind_ios=blind_ios,
                    read_modify_write_ios=rmw_ios)


# ----------------------------------------------------------------------
# A3 — record caching widens the no-I/O range
# ----------------------------------------------------------------------

@dataclass
class A3Result:
    """TC record caching vs a page-cache-only configuration.

    Both configurations get the *same total DRAM budget*; the record-cache
    configuration carves part of it out for the TC's retained log buffers
    and read cache (paper Figure 6).  Because a cached record costs ~a
    tenth of a page, the same bytes cover far more hot keys.
    """

    operations: int
    read_ios_page_only: int
    read_ios_with_tc: int
    tc_hit_rate: float
    breakeven_page_seconds: float
    breakeven_record_seconds: float
    records_per_page: float

    def shape_ok(self) -> bool:
        """TC record caching avoids read I/O at equal memory, and the
        record-level breakeven shifts by the records-per-page factor."""
        ratio = self.breakeven_record_seconds / self.breakeven_page_seconds
        return (self.read_ios_with_tc < self.read_ios_page_only
                and self.tc_hit_rate > 0.1
                and abs(ratio / self.records_per_page - 1) < 1e-9)

    def render(self) -> str:
        rows = [
            ["read I/Os, page cache only", f"{self.read_ios_page_only:,}"],
            ["read I/Os, with TC record caches",
             f"{self.read_ios_with_tc:,}"],
            ["TC hit rate (reads not reaching the DC)",
             f"{self.tc_hit_rate:.3f}"],
            ["page breakeven Ti", f"{self.breakeven_page_seconds:.1f} s"],
            [f"record breakeven Ti ({self.records_per_page:.0f}/page)",
             f"{self.breakeven_record_seconds:.0f} s"],
        ]
        return format_table(
            ["quantity", "value"], rows,
            title="A3: record caching at the TC "
                  "(paper Section 6.3, Figure 6)",
        )


def ablation_a3(record_count: int = 6_000, operations: int = 4_000,
                budget_fraction: float = 0.3) -> A3Result:
    """Same DRAM budget, with and without TC record caches."""
    from ..deuteronomy.engine import DeuteronomyEngine
    from ..deuteronomy.tc import TcConfig

    spec = WorkloadSpec(record_count=record_count, distribution="scrambled",
                        read_fraction=0.8, update_fraction=0.2, name="a3")

    def run(tc_caches: bool) -> tuple:
        machine = Machine.paper_default(cores=1)
        data_bytes = record_count * (spec.value_bytes + 14 + 16)
        budget = int(data_bytes * budget_fraction)
        if tc_caches:
            tc_config = TcConfig(
                log_buffer_bytes=1 << 16,
                log_retain_budget_bytes=int(budget * 0.10),
                read_cache_bytes=int(budget * 0.15),
            )
            page_budget = int(budget * 0.75)
        else:
            tc_config = TcConfig(
                log_buffer_bytes=1 << 16,
                log_retain_budget_bytes=0,
                read_cache_bytes=1,
            )
            page_budget = budget
        engine = DeuteronomyEngine(
            machine,
            BwTreeConfig(segment_bytes=1 << 18,
                         cache_capacity_bytes=None),
            tc_config,
        )
        for key, value in WorkloadGenerator(spec).load_items():
            engine.dc.upsert(key, value)
        engine.dc.checkpoint()
        engine.dc.store.flush()
        engine.dc.cache.capacity_bytes = page_budget
        engine.dc.cache.ensure_capacity()
        machine.reset_accounting()
        generator = WorkloadGenerator(spec)
        for op in generator.operations(operations):
            if op.kind.value == "read":
                txn = engine.tc.begin()
                engine.tc.read(txn, op.key)
                engine.tc.commit(txn)
            else:
                engine.tc.run_update(op.key, op.value)
        read_ios = int(engine.tc.counters.get("tc.dc_read_ios"))
        return read_ios, engine.tc.tc_hit_rate()

    ios_without, __ = run(tc_caches=False)
    ios_with, hit_rate = run(tc_caches=True)
    catalog = CostCatalog()
    records_per_page = catalog.page_bytes / (spec.value_bytes + 14 + 16)
    page_ti = breakeven_interval_seconds(catalog)
    record_ti = breakeven_interval_seconds(
        catalog.with_page_bytes(catalog.page_bytes / records_per_page)
    )
    return A3Result(
        operations=operations,
        read_ios_page_only=ios_without,
        read_ios_with_tc=ios_with,
        tc_hit_rate=hit_rate,
        breakeven_page_seconds=page_ti,
        breakeven_record_seconds=record_ti,
        records_per_page=records_per_page,
    )


# ----------------------------------------------------------------------
# A4 — the falling price of SSD IOPS (Section 7.1.2)
# ----------------------------------------------------------------------

@dataclass
class A4Result:
    iops_values: List[float]
    intervals: List[float]

    def shape_ok(self) -> bool:
        """More IOPS per dollar monotonically shrink the breakeven, and
        the 300k->500k step cuts the I/O term by ~40%."""
        monotone = all(
            self.intervals[i] > self.intervals[i + 1]
            for i in range(len(self.intervals) - 1)
        )
        catalog = CostCatalog()
        io_300 = catalog.ssd_io_dollars / 3.0e5
        io_500 = catalog.ssd_io_dollars / 5.0e5
        drop = 1 - io_500 / io_300
        return monotone and abs(drop - 0.4) < 0.01

    def render(self) -> str:
        rows = [
            [f"{iops:.3g}", f"{interval:.1f}"]
            for iops, interval in zip(self.iops_values, self.intervals)
        ]
        return format_table(
            ["SSD IOPS (same $)", "breakeven Ti (s)"], rows,
            title="A4: IOPS price decline shrinks the breakeven "
                  "(paper Section 7.1.2)",
        )


def ablation_a4(iops_values: Optional[List[float]] = None) -> A4Result:
    values = iops_values if iops_values is not None else [
        1.0e5, 2.0e5, 3.0e5, 5.0e5, 1.0e6,
    ]
    catalog = CostCatalog()
    return A4Result(
        iops_values=values,
        intervals=iops_price_sweep(catalog, values),
    )


# ----------------------------------------------------------------------
# A5 — garbage collection policy: eager vs lazy
# ----------------------------------------------------------------------

@dataclass
class A5Result:
    updates: int
    eager_flash_bytes: int
    lazy_flash_bytes: int
    eager_relocated_bytes: int
    lazy_relocated_bytes: int
    eager_efficiency: float
    lazy_efficiency: float

    def shape_ok(self) -> bool:
        """Eager keeps the footprint smaller; lazy reclaims more per byte
        rewritten (the paper's stated trade-off)."""
        return (self.eager_flash_bytes <= self.lazy_flash_bytes
                and self.lazy_efficiency >= self.eager_efficiency)

    def render(self) -> str:
        rows = [
            ["eager (clean to 85%)", f"{self.eager_flash_bytes:,}",
             f"{self.eager_relocated_bytes:,}",
             f"{self.eager_efficiency:.2f}"],
            ["lazy (clean to 55%)", f"{self.lazy_flash_bytes:,}",
             f"{self.lazy_relocated_bytes:,}",
             f"{self.lazy_efficiency:.2f}"],
        ]
        return format_table(
            ["GC policy", "flash footprint", "bytes relocated",
             "reclaimed/rewritten"],
            rows,
            title=f"A5: GC policy trade-off after {self.updates:,} updates "
                  "(paper Section 6.1)",
        )


def ablation_a5(record_count: int = 3_000, updates: int = 9_000) -> A5Result:
    # The mix includes reads: a purely blind-update stream never brings
    # bases back to memory, so pages only ever grow delta fragments and
    # nothing on flash goes dead.  Reads force fetch + consolidate + full
    # rewrites, which is what creates garbage for the cleaner.
    spec = WorkloadSpec(record_count=record_count, read_fraction=0.4,
                        update_fraction=0.6, distribution="uniform",
                        name="a5")
    outcomes = {}
    for policy, target in (("eager", 0.85), ("lazy", 0.55)):
        machine = Machine.paper_default(cores=1)
        tree = _loaded_tree(
            machine,
            BwTreeConfig(segment_bytes=1 << 16, max_flash_fragments=2),
            spec,
        )
        tree.cache.capacity_bytes = int(
            tree.average_leaf_bytes() * len(tree.mapping_table) * 0.3
        )
        tree.cache.ensure_capacity()
        generator = WorkloadGenerator(spec)
        batch = updates // 6
        for __ in range(6):
            apply_operations(tree, generator.operations(batch))
            tree.checkpoint()
            tree.gc.run_until_utilization(target)
        outcomes[policy] = (
            tree.store.stored_bytes,
            tree.gc.stats.bytes_relocated,
            tree.gc.stats.reclaim_efficiency,
        )
    return A5Result(
        updates=updates,
        eager_flash_bytes=outcomes["eager"][0],
        lazy_flash_bytes=outcomes["lazy"][0],
        eager_relocated_bytes=outcomes["eager"][1],
        lazy_relocated_bytes=outcomes["lazy"][1],
        eager_efficiency=outcomes["eager"][2],
        lazy_efficiency=outcomes["lazy"][2],
    )


# ----------------------------------------------------------------------
# A6 — NVRAM as extended memory (paper Section 8.2)
# ----------------------------------------------------------------------

@dataclass
class A6Result:
    """Four-tier cost analysis with NVRAM between DRAM and flash."""

    nvram_price_per_byte: float
    nvram_slowdown: float
    rates: List[float]
    tiers: List[str]
    dram_vs_nvm_rate: float
    nvm_vs_ss_rate: float
    ssd_savings_fraction: float

    def shape_ok(self) -> bool:
        """NVRAM wins a band between SS and DRAM; tiers never regress
        from hot back to cold; an NVRAM SSD saves under half the SS
        execution cost (the paper's two Section 8.2 claims)."""
        order = ["CSS", "SS", "NVM", "DRAM"]
        positions = [order.index(tier) for tier in self.tiers]
        monotone = positions == sorted(positions)
        return (monotone
                and "NVM" in self.tiers
                and 0.0 < self.ssd_savings_fraction < 0.5
                and self.nvm_vs_ss_rate < self.dram_vs_nvm_rate)

    def render(self) -> str:
        rows = [
            [f"{rate:.4g}", tier]
            for rate, tier in zip(self.rates, self.tiers)
        ]
        table = format_table(
            ["accesses/sec", "cheapest tier"], rows,
            title=(
                "A6: four-tier placement with NVRAM at "
                f"${self.nvram_price_per_byte:.1e}/B, "
                f"{self.nvram_slowdown:.1f}x DRAM latency (paper §8.2)"
            ),
        )
        return (
            f"{table}\n\nNVM beats SS above {self.nvm_vs_ss_rate:.4g}/s; "
            f"DRAM beats NVM above {self.dram_vs_nvm_rate:.4g}/s.\n"
            "NVRAM inside the SSD would cut SS execution cost by only "
            f"{self.ssd_savings_fraction:.0%} — the software path "
            "dominates, so flash keeps the SSD role."
        )


def ablation_a6(nvram: Optional[NvramParameters] = None,
                points: int = 25) -> A6Result:
    parameters = nvram if nvram is not None else NvramParameters()
    model = OperationCostModel()
    dram = replace(model.mm_line(), kind="DRAM")
    nvm = nvm_line(nvram=parameters)
    ss = model.ss_line()
    advisor = Advisor([dram, nvm, ss, model.css_line()])
    dram_vs_nvm_rate = crossover(dram, nvm)
    nvm_vs_ss_rate = crossover(nvm, ss)
    rates = logspace_rates(nvm_vs_ss_rate / 100, dram_vs_nvm_rate * 100,
                           points)
    return A6Result(
        nvram_price_per_byte=parameters.price_per_byte,
        nvram_slowdown=parameters.slowdown,
        rates=rates,
        tiers=[advisor.tier_for_rate(rate) for rate in rates],
        dram_vs_nvm_rate=dram_vs_nvm_rate,
        nvm_vs_ss_rate=nvm_vs_ss_rate,
        ssd_savings_fraction=nvram_in_ssd_savings_fraction(),
    )


# ----------------------------------------------------------------------
# A7 — HDDs cannot back a high-performance store (paper Section 8.3)
# ----------------------------------------------------------------------

@dataclass
class A7Result:
    """The "disk is tape" arithmetic for best and commodity drives."""

    system_ops_per_sec: float
    best_max_txn_per_sec: float
    commodity_max_txn_per_sec: float
    best_max_miss_fraction: float
    ops_per_latency: float
    hdd_breakeven_seconds: float
    ssd_breakeven_seconds: float

    def shape_ok(self) -> bool:
        """~20 txn/s on the best drive at 10 I/O per txn; sub-1% miss
        budget; an HDD breakeven orders of magnitude beyond the SSD's."""
        return (15.0 <= self.best_max_txn_per_sec <= 25.0
                and self.commodity_max_txn_per_sec
                < self.best_max_txn_per_sec
                and self.best_max_miss_fraction < 0.01
                and self.hdd_breakeven_seconds
                > 50 * self.ssd_breakeven_seconds)

    def render(self) -> str:
        rows = [
            ["ops executed per HDD latency",
             f"{self.ops_per_latency:,.0f}", "'5000 within the latency'"],
            ["miss fraction that saturates one drive",
             f"{self.best_max_miss_fraction:.2%}",
             "'less than a small fraction of 1%'"],
            ["max txn/sec (10 I/O each), best drive",
             f"{self.best_max_txn_per_sec:.0f}",
             "'no more than 20 transactions/second'"],
            ["max txn/sec, commodity drive",
             f"{self.commodity_max_txn_per_sec:.0f}", "-"],
            ["HDD breakeven interval",
             f"{self.hdd_breakeven_seconds / 3600:.1f} h",
             "archive territory"],
            ["SSD breakeven interval",
             f"{self.ssd_breakeven_seconds:.0f} s", "~45 s"],
        ]
        return format_table(
            ["quantity", "value", "paper"], rows,
            title=(
                "A7: 'disk is tape' at "
                f"{self.system_ops_per_sec:,.0f} ops/sec (paper §8.3)"
            ),
        )


def ablation_a7(system_ops_per_sec: float = 1e6) -> A7Result:
    best = hdd_viability(HddParameters(), system_ops_per_sec)
    commodity = hdd_viability(HddParameters.commodity(),
                              system_ops_per_sec)
    return A7Result(
        system_ops_per_sec=system_ops_per_sec,
        best_max_txn_per_sec=best.max_transactions_per_sec,
        commodity_max_txn_per_sec=commodity.max_transactions_per_sec,
        best_max_miss_fraction=best.max_miss_fraction,
        ops_per_latency=best.ops_per_hdd_latency,
        hdd_breakeven_seconds=hdd_breakeven_interval_seconds(),
        ssd_breakeven_seconds=breakeven_interval_seconds(CostCatalog()),
    )


# ----------------------------------------------------------------------
# A8 — compressed main memory (paper Section 7.2, last paragraph)
# ----------------------------------------------------------------------

@dataclass
class A8Result:
    """Does CMM earn a band between SS and MM, and when not?"""

    compression_ratio: float
    decompress_ratio: float
    window_low_rate: float
    window_high_rate: float
    has_window: bool
    mm_cost_mid: float
    ss_cost_mid: float
    cmm_cost_mid: float
    no_window_decompress_ratio: float

    def shape_ok(self) -> bool:
        """With moderate parameters CMM wins a middle band (strictly the
        cheapest there); with absurd decompression cost the window
        vanishes — both directions of the paper's conjecture."""
        return (self.has_window
                and self.cmm_cost_mid < self.mm_cost_mid
                and self.cmm_cost_mid < self.ss_cost_mid)

    def render(self) -> str:
        rows = [
            ["compression ratio", f"{self.compression_ratio:.2f}"],
            ["decompression cost (MM-op units)",
             f"{self.decompress_ratio:.1f}"],
            ["CMM beats SS above", f"{self.window_low_rate:.4g} /s"],
            ["MM beats CMM above", f"{self.window_high_rate:.4g} /s"],
            ["$ at window midpoint: MM", f"{self.mm_cost_mid:.4g}"],
            ["$ at window midpoint: SS", f"{self.ss_cost_mid:.4g}"],
            ["$ at window midpoint: CMM", f"{self.cmm_cost_mid:.4g}"],
            ["window survives decompress ratio of",
             f"< {self.no_window_decompress_ratio:.0f}"],
        ]
        return format_table(
            ["quantity", "value"], rows,
            title="A8: compressed main memory as a fourth class "
                  "(paper §7.2)",
        )


def ablation_a8(compression_ratio: float = 0.5,
                decompress_ratio: float = 3.0) -> A8Result:
    model = OperationCostModel()
    mm, ss = model.mm_line(), model.ss_line()

    def cmm_at(ratio: float) -> CostLine:
        return cmm_line(cmm=CmmParameters(
            compression_ratio=compression_ratio, decompress_ratio=ratio))

    def wins_a_band(cmm: CostLine) -> bool:
        """CMM is on the lower envelope of MM / CMM / SS."""
        return any(cmm.kind in boundary[:2]
                   for boundary in Advisor([mm, cmm, ss]).boundaries())

    cmm = cmm_at(decompress_ratio)
    low = crossover(cmm, ss)
    high = crossover(mm, cmm)
    mid = (low * high) ** 0.5 if 0 < low < high < float("inf") else high
    # Find (coarsely) where the window closes as decompression gets dear.
    closes_at = decompress_ratio
    probe = decompress_ratio
    while probe < 1000:
        probe *= 2
        if not wins_a_band(cmm_at(probe)):
            closes_at = probe
            break
    return A8Result(
        compression_ratio=compression_ratio,
        decompress_ratio=decompress_ratio,
        window_low_rate=low,
        window_high_rate=high,
        has_window=wins_a_band(cmm),
        mm_cost_mid=mm.at(mid).total,
        ss_cost_mid=ss.at(mid).total,
        cmm_cost_mid=cmm.at(mid).total,
        no_window_decompress_ratio=closes_at,
    )


# ----------------------------------------------------------------------
# A9 — RocksDB-style LSM obeys the same mixture model (Section 1.3)
# ----------------------------------------------------------------------

@dataclass
class A9Result:
    """(F, PF) points from the LSM stack and the R they imply.

    The paper groups RocksDB with Deuteronomy as "new data caching
    systems"; its Equation (2) should describe any of them.  We sweep the
    LSM's block-cache size, measure (F, PF), and recover the LSM's own
    execution ratio R via Equation (3).
    """

    p0: float
    points: List[dict]
    r_values: List[float]

    @property
    def r_mean(self) -> float:
        return sum(self.r_values) / len(self.r_values)

    @property
    def r_spread_fraction(self) -> float:
        mean = self.r_mean
        return max(abs(value - mean) for value in self.r_values) / mean

    def shape_ok(self) -> bool:
        """Throughput declines as F grows; one consistent R (< 40%
        spread) explains every point — i.e. Equation (2) fits."""
        throughputs = [point["throughput"] for point in self.points]
        declines = all(a > b for a, b in zip(throughputs, throughputs[1:]))
        fs = [point["f"] for point in self.points]
        grows = all(a < b for a, b in zip(fs, fs[1:]))
        return (declines and grows
                and len(self.r_values) >= 3
                and self.r_spread_fraction < 0.4
                and self.r_mean > 1.5)

    def render(self) -> str:
        rows = [
            [f"{point['cache_fraction']:.0%}", f"{point['f']:.3f}",
             f"{point['throughput']:,.0f}", f"{r:.2f}"]
            for point, r in zip(self.points, self.r_values)
        ]
        table = format_table(
            ["block cache", "F", "PF (ops/s)", "R via Eq (3)"], rows,
            title=f"A9: the LSM follows Equation (2); P0 = {self.p0:,.0f}",
        )
        return (
            f"{table}\n\nLSM R = {self.r_mean:.2f} "
            f"(+/- {self.r_spread_fraction:.0%}) — a single execution "
            "ratio explains the whole sweep, as for the Bw-tree."
        )


def ablation_a9(record_count: int = 8_000, operations: int = 4_000,
                cache_fractions=(0.6, 0.35, 0.18, 0.08)) -> A9Result:
    from ..core.mixture import derive_r
    from ..lsm.tree import LsmConfig, LsmTree

    spec = WorkloadSpec(record_count=record_count, value_bytes=100,
                        distribution="scrambled", name="a9")
    data_bytes = record_count * (spec.value_bytes + 14 + 16)

    def run(block_cache_bytes) -> tuple:
        machine = Machine.paper_default(cores=4)
        machine.ssd.spec = machine.ssd.spec.scaled_iops(5e6)
        tree = LsmTree(machine, LsmConfig(
            memtable_bytes=16 << 10,
            block_cache_bytes=block_cache_bytes,
        ))
        for key, value in WorkloadGenerator(spec).load_items():
            tree.upsert(key, value)
        tree.flush_memtable()
        generator = WorkloadGenerator(spec)
        for op in generator.operations(operations // 2):   # warm up
            tree.get(op.key)
        machine.reset_accounting()
        ss_before = tree.counters.get("lsm.ss_ops")
        ops_before = tree.counters.get("lsm.ops")
        for op in generator.operations(operations):
            tree.get(op.key)
        summary = machine.summary()
        f = ((tree.counters.get("lsm.ss_ops") - ss_before)
             / (tree.counters.get("lsm.ops") - ops_before))
        return f, summary.throughput_ops_per_sec

    # P0: a block cache big enough to hold everything.
    __, p0 = run(block_cache_bytes=max(1, data_bytes * 4))
    points = []
    r_values = []
    for fraction in cache_fractions:
        f, throughput = run(int(data_bytes * fraction))
        if f <= 0.01:
            continue
        points.append({
            "cache_fraction": fraction, "f": f, "throughput": throughput,
        })
        r_values.append(derive_r(p0, throughput, f))
    return A9Result(p0=p0, points=points, r_values=r_values)


# ----------------------------------------------------------------------
# A10 — adaptive breakeven eviction under a shifting hot set (§4.2, §8.4)
# ----------------------------------------------------------------------

@dataclass
class A10Result:
    """Cost-driven eviction vs static policies as the hot set moves."""

    data_bytes: int
    hot_set_bytes: int
    offered_ops_per_sec: float
    adaptive_phase1_bytes: float
    adaptive_phase2_bytes: float
    adaptive_f_phase2_tail: float
    all_dram_bytes: float
    adaptive_bill: float
    all_dram_bill: float

    def shape_ok(self) -> bool:
        """The adaptive footprint floats near the hot set (well below the
        whole database) in *both* phases — i.e. it releases the old hot
        set after the shift — while keeping F low once re-warmed, and its
        bill beats keeping everything in DRAM."""
        near_hot = (
            self.adaptive_phase1_bytes < self.data_bytes * 0.55
            and self.adaptive_phase2_bytes < self.data_bytes * 0.55
            and self.adaptive_phase1_bytes > self.hot_set_bytes * 0.5
        )
        rewarmed = self.adaptive_f_phase2_tail < 0.2
        cheaper = self.adaptive_bill < self.all_dram_bill
        return near_hot and rewarmed and cheaper

    def render(self) -> str:
        rows = [
            ["database size", f"{self.data_bytes:,} B"],
            ["hot set size", f"{self.hot_set_bytes:,} B"],
            ["offered rate", f"{self.offered_ops_per_sec:,.0f} ops/s"],
            ["adaptive DRAM, phase 1 (hot set A)",
             f"{self.adaptive_phase1_bytes:,.0f} B"],
            ["adaptive DRAM, phase 2 (hot set B)",
             f"{self.adaptive_phase2_bytes:,.0f} B"],
            ["adaptive F, late phase 2",
             f"{self.adaptive_f_phase2_tail:.3f}"],
            ["all-DRAM footprint", f"{self.all_dram_bytes:,.0f} B"],
            ["adaptive bill ($/s x 1/L)", f"{self.adaptive_bill:.4g}"],
            ["all-DRAM bill ($/s x 1/L)", f"{self.all_dram_bill:.4g}"],
        ]
        return format_table(
            ["quantity", "value"], rows,
            title="A10: breakeven-interval eviction tracks a moving hot "
                  "set (paper §4.2, §8.4)",
        )


def ablation_a10(record_count: int = 4_000,
                 phase_operations: int = 3_000,
                 offered_ops_per_sec: float = 30.0,
                 hot_fraction: float = 0.15,
                 hot_access_fraction: float = 0.98,
                 seed: int = 13) -> A10Result:
    import random

    from ..core.adaptive import AdaptiveCacheController, PacedDriver
    from ..core.costmeter import meter_bill

    spec = WorkloadSpec(record_count=record_count, value_bytes=100,
                        name="a10")
    record_bytes = spec.value_bytes + 14 + 16
    data_bytes = record_count * record_bytes
    hot_count = int(record_count * hot_fraction)
    hot_set_bytes = hot_count * record_bytes

    def key_stream(hot_low: int, hot_high: int, count: int, phase_seed: int):
        source = random.Random(phase_seed)
        for __ in range(count):
            if source.random() < hot_access_fraction:
                index = source.randrange(hot_low, hot_high)
            else:
                index = source.randrange(record_count)
            yield b"user%010d" % index

    def build(adaptive: bool):
        machine = Machine.paper_default(cores=4)
        tree = _loaded_tree(
            machine, BwTreeConfig(segment_bytes=1 << 18), spec
        )
        controller = (AdaptiveCacheController(tree)
                      if adaptive else None)
        driver = PacedDriver(tree, offered_ops_per_sec,
                             controller=controller)
        return machine, tree, driver

    # --- adaptive run -----------------------------------------------------
    machine, tree, driver = build(adaptive=True)
    machine.reset_accounting()
    phase1 = driver.run_phase(
        "hot-A", key_stream(0, hot_count, phase_operations, seed)
    )
    phase2 = driver.run_phase(
        "hot-B", key_stream(record_count - hot_count, record_count,
                            phase_operations, seed + 1)
    )
    tail = driver.run_phase(
        "hot-B-tail", key_stream(record_count - hot_count, record_count,
                                 phase_operations // 3, seed + 2)
    )
    window = machine.clock.now
    adaptive_bill = meter_bill(machine, window_seconds=window).total
    del phase2

    # --- everything-in-DRAM baseline ---------------------------------------
    machine2, tree2, driver2 = build(adaptive=False)
    machine2.reset_accounting()
    driver2.run_phase(
        "hot-A", key_stream(0, hot_count, phase_operations, seed)
    )
    driver2.run_phase(
        "hot-B", key_stream(record_count - hot_count, record_count,
                            phase_operations, seed + 1)
    )
    driver2.run_phase(
        "hot-B-tail", key_stream(record_count - hot_count, record_count,
                                 phase_operations // 3, seed + 2)
    )
    all_dram_bill = meter_bill(
        machine2, window_seconds=machine2.clock.now
    ).total

    return A10Result(
        data_bytes=data_bytes,
        hot_set_bytes=hot_set_bytes,
        offered_ops_per_sec=offered_ops_per_sec,
        # End-of-phase footprints: the steady state the controller
        # converges to once the initial warm-start decays past Ti.
        adaptive_phase1_bytes=phase1.resident_bytes_end,
        adaptive_phase2_bytes=tree.cache.resident_bytes,
        adaptive_f_phase2_tail=tail.ss_fraction,
        all_dram_bytes=tree2.cache.resident_bytes,
        adaptive_bill=adaptive_bill,
        all_dram_bill=all_dram_bill,
    )
