"""Sensitivity analysis and price-trend projection.

The paper stresses that its constants "change continuously" and that only
relative prices matter; Section 7.1.2 tracks one trend explicitly (SSD
IOPS getting ~40% cheaper per device generation).  This module makes such
what-ifs first-class:

* :func:`grid_sweep` evaluates any metric over a 2-D grid of catalog
  fields (e.g. breakeven interval over DRAM price x IOPS);
* :class:`PriceTrends` + :func:`project_catalog` compound annual price
  changes into future catalogs, and :func:`breakeven_trajectory` tracks
  where the five-minute rule goes under them.

Trend magnitudes are scenario inputs, not claims — defaults follow the
paper's qualitative direction (flash and IOPS cheapening faster than
DRAM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from ..frozen import above, check_bounds
from .breakeven import breakeven_interval_seconds, breakeven_report
from .catalog import CostCatalog


@dataclass(frozen=True)
class PriceTrends:
    """Compound annual change rates (fraction per year; negative = cheaper).

    ``iops_per_year`` grows the device's IOPS at constant drive price —
    the Section 7.1.2 trend.  ``rops_per_year`` models processor
    improvement at constant price.
    """

    dram_per_year: float = -0.10
    flash_per_year: float = -0.20
    iops_per_year: float = 0.25
    rops_per_year: float = 0.05

    #: No price or rate falls by 100% or more a year.
    BOUNDS = {name: (above(-1.0), math.inf) for name in (
        "dram_per_year", "flash_per_year", "iops_per_year", "rops_per_year")}

    def __post_init__(self) -> None:
        check_bounds(self)


def project_catalog(catalog: CostCatalog, trends: PriceTrends,
                    years: float) -> CostCatalog:
    """The catalog after ``years`` of compound price movement."""
    if years < 0:
        raise ValueError("cannot project backwards")
    return replace(
        catalog,
        dram_per_byte=catalog.dram_per_byte
        * (1.0 + trends.dram_per_year) ** years,
        flash_per_byte=catalog.flash_per_byte
        * (1.0 + trends.flash_per_year) ** years,
        iops=catalog.iops * (1.0 + trends.iops_per_year) ** years,
        rops=catalog.rops * (1.0 + trends.rops_per_year) ** years,
    )


def breakeven_trajectory(catalog: CostCatalog, trends: PriceTrends,
                         years: Sequence[float]
                         ) -> List[Tuple[float, float]]:
    """(year, Ti) pairs under the trend scenario."""
    return [
        (year, breakeven_interval_seconds(
            project_catalog(catalog, trends, year)
        ))
        for year in years
    ]


def cpu_term_trajectory(catalog: CostCatalog, trends: PriceTrends,
                        years: Sequence[float]
                        ) -> List[Tuple[float, float]]:
    """(year, CPU share of the breakeven) — the paper's §4.2 observation
    that the I/O *execution path* grows in relative importance as device
    IOPS cheapen."""
    result = []
    for year in years:
        report = breakeven_report(project_catalog(catalog, trends, year))
        result.append((year, report.cpu_term_fraction))
    return result


def grid_sweep(catalog: CostCatalog,
               x_field: str, x_values: Sequence[float],
               y_field: str, y_values: Sequence[float],
               metric: Callable[[CostCatalog], float] | None = None,
               ) -> Dict[str, object]:
    """Evaluate ``metric`` (default: breakeven Ti) on a 2-D catalog grid.

    Returns ``{"x": ..., "y": ..., "grid": [[metric]]}`` with rows indexed
    by ``y_values`` and columns by ``x_values``.
    """
    fn = metric if metric is not None else breakeven_interval_seconds
    for field_name in (x_field, y_field):
        if not hasattr(catalog, field_name):
            raise ValueError(f"catalog has no field {field_name!r}")
    grid: List[List[float]] = []
    for y in y_values:
        row = []
        for x in x_values:
            candidate = replace(catalog, **{x_field: x, y_field: y})
            row.append(fn(candidate))
        grid.append(row)
    return {"x": list(x_values), "y": list(y_values), "grid": grid,
            "x_field": x_field, "y_field": y_field}


def tornado(catalog: CostCatalog,
            swing_fraction: float = 0.5,
            metric: Callable[[CostCatalog], float] | None = None,
            fields: Sequence[str] = (
                "dram_per_byte", "flash_per_byte", "processor_dollars",
                "ssd_io_dollars", "rops", "iops", "page_bytes", "r",
            )) -> List[Tuple[str, float, float]]:
    """One-at-a-time sensitivity: metric at field x (1 +/- swing).

    Returns (field, metric_low, metric_high) sorted by impact — the
    classic tornado-chart input, showing which price the five-minute rule
    actually hinges on.
    """
    if not 0.0 < swing_fraction < 1.0:
        raise ValueError("swing fraction must be in (0, 1)")
    fn = metric if metric is not None else breakeven_interval_seconds
    rows = []
    for field_name in fields:
        base = getattr(catalog, field_name)
        low_value = base * (1 - swing_fraction)
        if field_name == "r":
            # R below 1 contradicts the model (SS cannot beat MM).
            low_value = max(1.0, low_value)
        low = fn(replace(catalog, **{field_name: low_value}))
        high = fn(replace(catalog, **{field_name: base
                                      * (1 + swing_fraction)}))
        rows.append((field_name, low, high))
    rows.sort(key=lambda row: abs(row[2] - row[1]), reverse=True)
    return rows
