"""The paper's contribution: the cost/performance model (Equations 1-8).

* :mod:`catalog` — infrastructure prices and measured quantities (§3.1, §4.1)
* :mod:`mixture` — mixed MM/SS workload throughput and R derivation (§2)
* :mod:`costmodel` — every operation class as a ``CostLine``; the one
  ``crossover`` and the one ``Advisor`` over them (§3.2, §7.2)
* :mod:`breakeven` — the updated five-minute rule (§4.2)
* :mod:`mainmemory` — Bw-tree vs MassTree crossover (§5)
* :mod:`technology` — NVRAM, HDD and compressed-memory lines (§7.2, §8)
* :mod:`tiers` — N-tier hierarchy lines
* :mod:`calibration` — measuring the model's inputs from the simulator
"""

from .adaptive import (
    AdaptiveCacheController,
    PacedDriver,
    PacedPhaseStats,
)
from .breakeven import (
    BreakevenReport,
    TierPairBreakeven,
    breakeven_interval_seconds,
    breakeven_rate_ops_per_sec,
    breakeven_report,
    classic_gray_interval_seconds,
    hierarchy_breakeven_surface,
    iops_price_sweep,
    record_cache_breakeven_seconds,
    tier_pair_breakeven,
)
from .calibration import (
    MeasuredRun,
    PxMxMeasurement,
    RExperiment,
    StackConfig,
    build_loaded_stack,
    catalog_from_measurements,
    derive_r,
    measure_direct_r,
    measure_p0,
    measure_point,
    measure_px_mx,
    run_measurement,
)
from .catalog import CostCatalog
from .costmeter import CostBill, RunPrice, meter_bill, price_run
from .costmodel import (
    Advisor,
    CostLine,
    CssParameters,
    OperationCost,
    OperationCostModel,
    cheapest,
    crossover,
    logspace_rates,
)
from .mainmemory import MainMemoryComparison, paper_comparison
from .mixture import (
    MeasuredPoint,
    MixtureModel,
    RDerivation,
    derive_r as derive_r_from_point,
    mixed_execution_time,
    mixed_throughput,
    relative_performance,
)
from .technology import (
    CmmParameters,
    HddParameters,
    HddViabilityReport,
    NvramParameters,
    cmm_line,
    hdd_breakeven_interval_seconds,
    hdd_viability,
    nvm_line,
    nvram_in_ssd_savings_fraction,
)
from .tiers import hierarchy_lines

__all__ = [
    "CostCatalog",
    "OperationCostModel",
    "OperationCost",
    "CostLine",
    "crossover",
    "cheapest",
    "Advisor",
    "CssParameters",
    "logspace_rates",
    "MixtureModel",
    "MeasuredPoint",
    "RDerivation",
    "mixed_execution_time",
    "mixed_throughput",
    "relative_performance",
    "derive_r_from_point",
    "BreakevenReport",
    "breakeven_interval_seconds",
    "breakeven_rate_ops_per_sec",
    "breakeven_report",
    "classic_gray_interval_seconds",
    "record_cache_breakeven_seconds",
    "iops_price_sweep",
    "TierPairBreakeven",
    "tier_pair_breakeven",
    "hierarchy_breakeven_surface",
    "hierarchy_lines",
    "MainMemoryComparison",
    "paper_comparison",
    "NvramParameters",
    "nvm_line",
    "nvram_in_ssd_savings_fraction",
    "HddParameters",
    "HddViabilityReport",
    "hdd_viability",
    "hdd_breakeven_interval_seconds",
    "CmmParameters",
    "cmm_line",
    "AdaptiveCacheController",
    "PacedDriver",
    "PacedPhaseStats",
    "CostBill",
    "meter_bill",
    "RunPrice",
    "price_run",
    "StackConfig",
    "MeasuredRun",
    "RExperiment",
    "PxMxMeasurement",
    "build_loaded_stack",
    "run_measurement",
    "measure_point",
    "measure_p0",
    "derive_r",
    "measure_direct_r",
    "measure_px_mx",
    "catalog_from_measurements",
]
