"""New/old technology analysis (paper Sections 7.2 and 8.2-8.3).

The paper closes by applying its cost framework to technologies beyond
DRAM+flash:

* **NVRAM** (Section 8.2) — priced between DRAM and flash, performing
  between them, and persistent.  Two candidate roles: inside the SSD
  (where it loses, because the *execution* cost of an I/O dominates) or
  as extended main memory (where a fetch costs no I/O path at all).
* **HDD** (Section 8.3) — a few hundred IOPS cannot back a store running
  millions of ops/sec; "disk is tape".
* **Compressed main memory** (Section 7.2, last paragraph) — paying
  decompression CPU on every access to shrink the DRAM bill, a fourth
  operation class between MM and SS.

Everything here reuses the Equation (4)/(5) structure: a storage rental
term plus a rate-scaled execution term — a
:class:`~repro.core.costmodel.CostLine` — so every pairwise breakeven is
:func:`~repro.core.costmodel.crossover` of two lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..frozen import ABOVE_ZERO, UP_TO_ONE, check_bounds
from .breakeven import breakeven_interval_seconds
from .catalog import CostCatalog
from .costmodel import CostLine


# ----------------------------------------------------------------------
# NVRAM (Section 8.2)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NvramParameters:
    """Price and performance of byte-addressable non-volatile memory.

    ``price_per_byte`` sits between DRAM (5e-9) and flash (0.5e-9);
    ``slowdown`` multiplies the MM execution path (NVRAM loads/stores are
    slower than DRAM but there is no I/O software path at all).  NVRAM is
    persistent, so data held there needs no separate flash copy.
    """

    price_per_byte: float = 2.0e-9
    slowdown: float = 2.0

    #: NVRAM cannot be faster than DRAM.
    BOUNDS = {"price_per_byte": (ABOVE_ZERO, math.inf),
              "slowdown": (1.0, math.inf)}

    def __post_init__(self) -> None:
        check_bounds(self)


def nvm_line(catalog: Optional[CostCatalog] = None,
             nvram: Optional[NvramParameters] = None) -> CostLine:
    """An operation on NVRAM-resident data: no I/O, slower execution.

    NVRAM pays more for bytes than flash but nothing for the I/O path —
    the paper's point that "fetching data from NVRAM has much lower cost
    ... than an SS operation" — and, being persistent, rents no flash
    copy, which is what lets it undercut DRAM below some access rate.
    """
    cat = catalog if catalog is not None else CostCatalog()
    parameters = nvram if nvram is not None else NvramParameters()
    return CostLine(
        "NVM",
        parameters.price_per_byte * cat.page_bytes,
        parameters.slowdown * cat.mm_execution_cost_per_op,
    )


def nvram_in_ssd_savings_fraction(
        catalog: Optional[CostCatalog] = None) -> float:
    """How much an NVRAM-based SSD would cut the SS *execution* cost.

    Modelled as removing the device's contribution but keeping the
    whole software path — the paper's argument for why NVRAM is
    unlikely to displace flash inside SSDs: "the cost of accessing an
    SSD is high largely because of the execution cost of an I/O, so
    little access cost is saved".
    """
    cat = catalog if catalog is not None else CostCatalog()
    full = cat.ss_execution_cost_per_op
    without_device = cat.r * cat.mm_execution_cost_per_op
    return 1.0 - without_device / full


# ----------------------------------------------------------------------
# HDD (Section 8.3)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HddParameters:
    """A hard drive: IOPS, latency, price.

    Defaults are the paper's "best of them": just over 200 IOPS at ~5 ms.
    ``commodity()`` gives the cheaper 100-IOPS/10-ms drive.
    """

    iops: float = 200.0
    latency_ms: float = 5.0
    price_dollars: float = 250.0
    capacity_bytes: float = 8e12

    BOUNDS = dict.fromkeys(__annotations__, (ABOVE_ZERO, math.inf))

    def __post_init__(self) -> None:
        check_bounds(self)

    @classmethod
    def commodity(cls) -> "HddParameters":
        return cls(iops=100.0, latency_ms=10.0, price_dollars=150.0)

    @property
    def price_per_byte(self) -> float:
        return self.price_dollars / self.capacity_bytes


@dataclass(frozen=True)
class HddViabilityReport:
    """The Section 8.3 arithmetic for a store at a given speed."""

    system_ops_per_sec: float
    hdd_iops: float
    ops_per_hdd_latency: float          # "5000 within the latency of an HDD"
    max_miss_fraction: float            # F that saturates one drive
    max_transactions_per_sec: float     # at ios_per_transaction
    ios_per_transaction: float

    @property
    def viable_for_random_io(self) -> bool:
        """An HDD backs the store only if it survives ~1% misses."""
        return self.max_miss_fraction >= 0.01


def hdd_viability(hdd: Optional[HddParameters] = None,
                  system_ops_per_sec: float = 1e6,
                  ios_per_transaction: float = 10.0) -> HddViabilityReport:
    """Reproduce the paper's "disk is tape" arithmetic."""
    drive = hdd if hdd is not None else HddParameters()
    if system_ops_per_sec <= 0 or ios_per_transaction <= 0:
        raise ValueError("rates must be positive")
    latency_seconds = drive.latency_ms / 1e3
    return HddViabilityReport(
        system_ops_per_sec=system_ops_per_sec,
        hdd_iops=drive.iops,
        ops_per_hdd_latency=system_ops_per_sec * latency_seconds,
        max_miss_fraction=drive.iops / system_ops_per_sec,
        max_transactions_per_sec=drive.iops / ios_per_transaction,
        ios_per_transaction=ios_per_transaction,
    )


def hdd_breakeven_interval_seconds(catalog: Optional[CostCatalog] = None,
                                   hdd: Optional[HddParameters] = None,
                                   r_hdd: float = 9.0) -> float:
    """Equation (6) with HDD numbers: Gray's original regime.

    The whole drive price buys its (tiny) IOPS; the result is an interval
    of hours, which is why page caching against HDDs barely ever evicts —
    and why HDDs remain fine for backup/archive (low access frequency).
    The catalog with the drive substituted goes through the same
    validation as every other Equation (6) entry point (``r_hdd < 1``
    raises).
    """
    cat = catalog if catalog is not None else CostCatalog()
    drive = hdd if hdd is not None else HddParameters()
    return breakeven_interval_seconds(replace(
        cat, ssd_io_dollars=drive.price_dollars, iops=drive.iops, r=r_hdd,
    ))


# ----------------------------------------------------------------------
# Compressed main memory (Section 7.2, last paragraph)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CmmParameters:
    """Compressed-main-memory operation class.

    Data lives compressed in DRAM (and compressed on flash for
    durability); every access decompresses, adding execution cost.
    ``decompress_ratio`` is that added cost in MM-operation units.
    """

    compression_ratio: float = 0.5
    decompress_ratio: float = 3.0   # CMM op ~= (1 + this) MM ops

    BOUNDS = {"compression_ratio": (ABOVE_ZERO, UP_TO_ONE),
              "decompress_ratio": (0.0, math.inf)}

    def __post_init__(self) -> None:
        check_bounds(self)


def cmm_line(catalog: Optional[CostCatalog] = None,
             cmm: Optional[CmmParameters] = None) -> CostLine:
    """The CMM class next to MM and SS (the paper's 'staging' idea).

    The paper conjectures CMM's "total cost might well be lower than
    either of these alternatives" in a middle band: it is, exactly when
    this line is on the lower envelope of MM / CMM / SS
    (:meth:`repro.core.costmodel.Advisor.boundaries`).
    """
    cat = catalog if catalog is not None else CostCatalog()
    parameters = cmm if cmm is not None else CmmParameters()
    return CostLine(
        "CMM",
        (cat.dram_per_byte + cat.flash_per_byte) * cat.page_bytes
        * parameters.compression_ratio,
        (1.0 + parameters.decompress_ratio) * cat.mm_execution_cost_per_op,
    )
