"""Main-memory vs data-caching cost comparison (paper Section 5, Eq 7-8).

Comparing the fully cached Bw-tree against MassTree is not a paging
question: both keep everything resident, so the storage term covers the
*whole database* S and the comparison reduces to MassTree's memory
expansion Mx against its performance gain Px:

    $DM  = Ti * S * $M        + $P / ROPS                  (Bw-tree)
    $MTM = Ti * Mx * S * $M   + $P / (Px * ROPS)           (MassTree)

    Ti = (1/S) * ($P/ROPS) * (1/$M) * (Px - 1) / (Px * (Mx - 1))   (Eq 7)

With the paper's Px ~ 2.6 and Mx ~ 2.1 this collapses to Ti ~ 8.3e3 / S
(Equation 8): the bigger the database, the higher the access rate has to be
before MassTree's faster-but-fatter design wins.  Equation (7) stays in
its closed form (``BENCH_engine.json`` reads it); the two
:class:`~repro.core.costmodel.CostLine` constructors price Figure 3, and
a test pins their :func:`~repro.core.costmodel.crossover` to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..frozen import above, check_bounds
from .catalog import CostCatalog
from .costmodel import CostLine


@dataclass(frozen=True)
class MainMemoryComparison:
    """Px/Mx observations plus the catalog they are priced against."""

    px: float                     # MassTree ops/sec over Bw-tree ops/sec
    mx: float                     # MassTree bytes over Bw-tree bytes
    catalog: CostCatalog

    #: MassTree is the faster *and* the bigger system, or Eq. (7) has no
    #: crossover.
    BOUNDS = {"px": (above(1.0), math.inf), "mx": (above(1.0), math.inf)}

    def __post_init__(self) -> None:
        check_bounds(self)

    # --- Equation 7 -----------------------------------------------------

    @property
    def breakeven_constant(self) -> float:
        """The Ti * S product — the paper's 8.3e3 (Equation 8)."""
        cat = self.catalog
        return (
            (cat.processor_dollars / cat.rops)
            * (1.0 / cat.dram_per_byte)
            * (self.px - 1.0) / (self.px * (self.mx - 1.0))
        )

    def breakeven_interval_seconds(self, database_bytes: float) -> float:
        """Ti below which MassTree is cheaper, for a database of S bytes."""
        if database_bytes <= 0:
            raise ValueError("database size must be positive")
        return self.breakeven_constant / database_bytes

    def breakeven_rate_ops_per_sec(self, database_bytes: float) -> float:
        """The access rate above which MassTree is cheaper."""
        return 1.0 / self.breakeven_interval_seconds(database_bytes)

    # --- the two whole-database cost lines (Figure 3) --------------------

    def bwtree_line(self, database_bytes: float) -> CostLine:
        """$DM per second: whole-database DRAM rental + execution."""
        cat = self.catalog
        return CostLine("bwtree", database_bytes * cat.dram_per_byte,
                        cat.mm_execution_cost_per_op)

    def masstree_line(self, database_bytes: float) -> CostLine:
        """$MTM per second: expanded DRAM rental + faster execution."""
        cat = self.catalog
        return CostLine("masstree",
                        self.mx * database_bytes * cat.dram_per_byte,
                        cat.mm_execution_cost_per_op / self.px)


def paper_comparison(catalog: CostCatalog | None = None
                     ) -> MainMemoryComparison:
    """The paper's point experiment: Px ~ 2.6, Mx ~ 2.1 (Section 5.1)."""
    return MainMemoryComparison(
        px=2.6,
        mx=2.1,
        catalog=catalog if catalog is not None else CostCatalog(),
    )
