"""Infrastructure cost catalog (paper Sections 3.1 and 4.1).

All costs are *rental* rates: price divided by a common lifetime L.  Because
every comparison in the paper is relative, L cancels (Section 3.2), so the
catalog stores raw prices and the model works per implicit 1/L — exactly as
the paper's equations do.

Defaults are the paper's 2018 numbers; everything is overridable, so a
what-if (an IOPS price decline, a DRAM price move, another page size) is
one ``with_*`` or ``replace`` away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..frozen import ABOVE_ZERO, check_bounds


@dataclass(frozen=True)
class CostCatalog:
    """Prices and measured performance quantities for the cost model.

    Attributes mirror the paper's symbols:

    * ``dram_per_byte`` — $M, dollars per byte of DRAM.
    * ``flash_per_byte`` — $Fl, dollars per byte of flash.
    * ``processor_dollars`` — $P, dollars for the processor.
    * ``ssd_io_dollars`` — $I, the slice of the SSD price that buys its
      I/O capability (drive price minus flash-byte price).
    * ``rops`` — measured MM read operations per second (4-core).
    * ``iops`` — measured maximum SSD I/O operations per second.
    * ``page_bytes`` — Ps, average page size moved between DRAM and flash.
    * ``r`` — measured SS/MM execution-cost ratio.
    """

    dram_per_byte: float = 5.0e-9
    flash_per_byte: float = 0.5e-9
    processor_dollars: float = 300.0
    ssd_io_dollars: float = 50.0
    rops: float = 4.0e6
    iops: float = 2.0e5
    page_bytes: float = 2.7e3
    r: float = 5.8

    #: Every price and rate is positive; an R below 1 would mean SS ops
    #: beat MM ops, against the model's premise.
    BOUNDS = {**dict.fromkeys(__annotations__, (ABOVE_ZERO, math.inf)),
              "r": (1.0, math.inf)}

    def __post_init__(self) -> None:
        check_bounds(self)

    # --- derived per-second / per-op quantities --------------------------

    @property
    def mm_execution_cost_per_op(self) -> float:
        """$P / ROPS: processor rental for one MM operation."""
        return self.processor_dollars / self.rops

    @property
    def ss_execution_cost_per_op(self) -> float:
        """$I/IOPS + R * $P/ROPS: I/O plus the longer execution path."""
        return (self.ssd_io_dollars / self.iops
                + self.r * self.mm_execution_cost_per_op)

    @property
    def io_cost_per_op(self) -> float:
        """$I / IOPS alone."""
        return self.ssd_io_dollars / self.iops

    def mm_storage_cost(self, nbytes: float | None = None) -> float:
        """(M + Fl) * bytes: DRAM plus the durable flash copy."""
        size = self.page_bytes if nbytes is None else nbytes
        return (self.dram_per_byte + self.flash_per_byte) * size

    def ss_storage_cost(self, nbytes: float | None = None) -> float:
        """Fl * bytes: flash only."""
        size = self.page_bytes if nbytes is None else nbytes
        return self.flash_per_byte * size

    @property
    def storage_cost_ratio(self) -> float:
        """MM vs SS storage cost — the paper's ~11x (Section 4.2)."""
        return self.mm_storage_cost() / self.ss_storage_cost()

    @property
    def execution_cost_ratio(self) -> float:
        """SS vs MM execution cost — the paper's ~12x (Section 4.2)."""
        return self.ss_execution_cost_per_op / self.mm_execution_cost_per_op

    # --- variants -----------------------------------------------------------

    @classmethod
    def paper_2018(cls) -> "CostCatalog":
        """The paper's published constants, verbatim."""
        return cls()

    def with_r(self, r: float) -> "CostCatalog":
        """Same hardware, different measured execution ratio R."""
        return replace(self, r=r)

    def with_iops(self, iops: float,
                  ssd_io_dollars: float | None = None) -> "CostCatalog":
        """The Section 7.1.2 sweep: more IOPS at the same (or given) price."""
        if ssd_io_dollars is None:
            return replace(self, iops=iops)
        return replace(self, iops=iops, ssd_io_dollars=ssd_io_dollars)

    def with_page_bytes(self, page_bytes: float) -> "CostCatalog":
        """Different transfer-unit size (record caching shrinks it)."""
        return replace(self, page_bytes=page_bytes)
