"""Experiment drivers for the paper's derived-constant tables (T1-T4).

The paper has no numbered tables; its Section 4.1 constants and the derived
quantities quoted in Sections 2.2, 4.2 and 5.2 are reproduced here as
tables T1-T4 (see DESIGN.md Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.breakeven import (
    breakeven_report,
    classic_gray_interval_seconds,
    record_cache_breakeven_seconds,
)
from ..core.calibration import (
    StackConfig,
    build_loaded_stack,
    derive_r,
    measure_direct_r,
    measure_p0,
    measure_px_mx,
)
from ..core.catalog import CostCatalog
from ..core.costmodel import OperationCostModel, crossover
from ..core.mainmemory import paper_comparison
from ..hardware.iopath import IoPathKind
from .reporting import format_table


# ----------------------------------------------------------------------
# T1 — hardware cost catalog plus simulator-measured counterparts
# ----------------------------------------------------------------------

@dataclass
class Table1Result:
    catalog: CostCatalog
    measured_rops: float
    measured_page_bytes: float
    measured_r: float

    def shape_ok(self) -> bool:
        """Measured quantities land near the paper's constants."""
        return (
            abs(self.measured_rops / self.catalog.rops - 1) < 0.35
            and abs(self.measured_page_bytes / self.catalog.page_bytes - 1)
            < 0.35
            and abs(self.measured_r / self.catalog.r - 1) < 0.30
        )

    def render(self) -> str:
        cat = self.catalog
        rows = [
            ["$M (DRAM $/byte)", f"{cat.dram_per_byte:.2g}", "-"],
            ["$Fl (flash $/byte)", f"{cat.flash_per_byte:.2g}", "-"],
            ["$P (processor $)", f"{cat.processor_dollars:.0f}", "-"],
            ["$I (SSD I/O $)", f"{cat.ssd_io_dollars:.0f}", "-"],
            ["ROPS (MM ops/s, 4-core)", f"{cat.rops:.2g}",
             f"{self.measured_rops:.3g}"],
            ["IOPS (max SSD I/O/s)", f"{cat.iops:.2g}", "(device spec)"],
            ["Ps (avg page bytes)", f"{cat.page_bytes:.3g}",
             f"{self.measured_page_bytes:.3g}"],
            ["R (SS/MM exec ratio)", f"{cat.r:.2g}",
             f"{self.measured_r:.3g}"],
        ]
        return format_table(
            ["quantity", "paper", "simulated"], rows,
            title="T1: hardware cost catalog (paper Section 4.1)",
        )


def table1(record_count: int = 20_000,
           measure_operations: int = 6_000) -> Table1Result:
    config = StackConfig(record_count=record_count, cores=4,
                         measure_operations=measure_operations,
                         warmup_operations=measure_operations // 3)
    baseline = measure_p0(config)
    r = measure_direct_r(config)
    __, tree, __gen = build_loaded_stack(config)
    return Table1Result(
        catalog=CostCatalog.paper_2018(),
        measured_rops=baseline.throughput,
        measured_page_bytes=tree.average_leaf_bytes(),
        measured_r=r,
    )


# ----------------------------------------------------------------------
# T2 — the Section 4.2 breakeven derivations
# ----------------------------------------------------------------------

@dataclass
class Table2Result:
    catalog: CostCatalog
    interval_seconds: float
    rate: float
    storage_ratio: float
    execution_ratio: float
    gray_interval: float
    record_cache_interval_10: float
    crossover_check: float

    def shape_ok(self) -> bool:
        """Ti ~ 45 s; ratios ~11x / ~9-12x; both derivations agree."""
        return (
            40.0 < self.interval_seconds < 50.0
            and 9.0 < self.storage_ratio < 13.0
            and 7.0 < self.execution_ratio < 13.0
            and abs(self.crossover_check * self.interval_seconds - 1.0)
            < 1e-9
            and self.gray_interval < self.interval_seconds
        )

    def render(self) -> str:
        rows = [
            ["breakeven interval Ti", f"{self.interval_seconds:.1f} s",
             "~45 s"],
            ["breakeven rate N", f"{self.rate:.4g} /s", "1/45 /s"],
            ["MM/SS storage cost ratio", f"{self.storage_ratio:.1f}x",
             "~11x"],
            ["SS/MM execution cost ratio", f"{self.execution_ratio:.1f}x",
             "~12x (paper's rounding)"],
            ["Gray's rule (I/O term only)", f"{self.gray_interval:.1f} s",
             "smaller than Ti"],
            ["record-cache Ti (10 rec/page)",
             f"{self.record_cache_interval_10:.0f} s",
             "~10x the page Ti"],
        ]
        return format_table(
            ["derived quantity", "computed", "paper"], rows,
            title="T2: the updated five-minute rule (paper Section 4.2)",
        )


def table2(catalog: Optional[CostCatalog] = None) -> Table2Result:
    cat = catalog if catalog is not None else CostCatalog()
    report = breakeven_report(cat)
    model = OperationCostModel(cat)
    return Table2Result(
        catalog=cat,
        interval_seconds=report.interval_seconds,
        rate=report.rate_ops_per_sec,
        storage_ratio=report.storage_cost_ratio,
        execution_ratio=report.execution_cost_ratio,
        gray_interval=classic_gray_interval_seconds(cat),
        record_cache_interval_10=record_cache_breakeven_seconds(cat, 10),
        crossover_check=crossover(model.mm_line(), model.ss_line()),
    )


# ----------------------------------------------------------------------
# T3 — the Section 5.1/5.2 main-memory comparison numbers
# ----------------------------------------------------------------------

@dataclass
class Table3Result:
    px: float
    mx: float
    constant: float
    paper_constant: float
    rate_6_1_gb: float
    rate_100_gb: float
    interval_2_7_kb: float

    def shape_ok(self) -> bool:
        """Px/Mx near the paper's point experiment; Eq-8 scaling holds."""
        return (
            2.0 <= self.px <= 3.2
            and 1.6 <= self.mx <= 2.6
            and abs(self.constant / self.paper_constant - 1) < 0.35
            and abs(
                self.rate_100_gb / (self.rate_6_1_gb * 100 / 6.1) - 1
            ) < 1e-9
        )

    def render(self) -> str:
        rows = [
            ["Px (perf gain)", f"{self.px:.2f}", "2.6"],
            ["Mx (memory expansion)", f"{self.mx:.2f}", "2.1"],
            ["Ti * S constant", f"{self.constant:.3g}", "8.3e3"],
            ["crossover @ 6.1 GB", f"{self.rate_6_1_gb:,.0f} ops/s",
             "0.73e6"],
            ["crossover @ 100 GB", f"{self.rate_100_gb:,.0f} ops/s",
             "~12e6"],
            ["Ti @ 2.7 KB page", f"{self.interval_2_7_kb:.2f} s", "3.1 s"],
        ]
        return format_table(
            ["quantity", "measured/computed", "paper"], rows,
            title="T3: Bw-tree vs MassTree comparison (paper Section 5)",
        )


def table3(record_count: int = 20_000,
           measure_operations: int = 8_000) -> Table3Result:
    measurement = measure_px_mx(record_count=record_count,
                                measure_operations=measure_operations)
    comparison = measurement.comparison()
    paper = paper_comparison()
    return Table3Result(
        px=measurement.px,
        mx=measurement.mx,
        constant=comparison.breakeven_constant,
        paper_constant=paper.breakeven_constant,
        rate_6_1_gb=comparison.breakeven_rate_ops_per_sec(6.1e9),
        rate_100_gb=comparison.breakeven_rate_ops_per_sec(100e9),
        interval_2_7_kb=comparison.breakeven_interval_seconds(2.7e3),
    )


# ----------------------------------------------------------------------
# T4 — R derived from mixed-workload runs (Section 2.2)
# ----------------------------------------------------------------------

@dataclass
class Table4Result:
    p0: float
    rows: List[Dict[str, float]]
    r_mean: float
    r_min: float
    r_max: float
    r_kernel: float

    def shape_ok(self) -> bool:
        """R in the paper's 5.8 +/- 30% band; kernel path larger."""
        return (
            5.8 * 0.7 <= self.r_mean <= 5.8 * 1.3
            and self.r_kernel > self.r_mean
        )

    def render(self) -> str:
        table_rows = [
            [f"{row['f']:.3f}", f"{row['throughput']:,.0f}",
             f"{row['r']:.2f}"]
            for row in self.rows
        ]
        table = format_table(
            ["F", "PF (ops/s)", "R from Eq (3)"], table_rows,
            title=f"T4: R derivation, P0 = {self.p0:,.0f} ops/s",
        )
        return (
            f"{table}\n\nR = {self.r_mean:.2f} "
            f"[{self.r_min:.2f}, {self.r_max:.2f}] user-level; "
            f"kernel path R = {self.r_kernel:.2f} "
            "(paper: 5.8 +/- 30%, ~9 unoptimized)"
        )


def table4(record_count: int = 20_000,
           measure_operations: int = 6_000,
           cache_fractions: tuple = (0.6, 0.4, 0.25, 0.12)) -> Table4Result:
    config = StackConfig(record_count=record_count, cores=4,
                         measure_operations=measure_operations,
                         warmup_operations=measure_operations // 3,
                         ssd_iops_override=5e6)
    experiment = derive_r(config, cache_fractions=cache_fractions)
    assert experiment.derivation is not None
    rows = []
    for run, r in zip(experiment.points, experiment.derivation.r_values):
        rows.append({"f": run.f, "throughput": run.throughput, "r": r})
    r_kernel = measure_direct_r(
        config.replace(io_path=IoPathKind.KERNEL, ssd_iops_override=None)
    )
    return Table4Result(
        p0=experiment.p0,
        rows=rows,
        r_mean=experiment.derivation.mean,
        r_min=experiment.derivation.minimum,
        r_max=experiment.derivation.maximum,
        r_kernel=r_kernel,
    )
