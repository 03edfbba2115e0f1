"""Metering the actual bill of a simulated run.

The cost model prices operation *classes*; this module prices a *run*:
given a machine's accounting over a measurement window, it computes the
dollars-per-second (times the implicit 1/L) actually spent on DRAM rental,
flash rental, processor time and SSD I/O capability.  This is what lets
experiments compare cache policies by the money they cost rather than by
proxy metrics.  :func:`meter_bill` prices one machine's window per
second; :func:`price_run` prices a finished run (engine or fleet) per
operation in Eq. (4)-(5) terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hardware.machine import Machine, RunSummary
from .catalog import CostCatalog


@dataclass(frozen=True)
class CostBill:
    """One window's spend, per second, with the paper's implicit 1/L."""

    dram_cost: float
    flash_cost: float
    processor_cost: float
    io_cost: float
    window_seconds: float
    operations: int

    @property
    def total(self) -> float:
        return (self.dram_cost + self.flash_cost
                + self.processor_cost + self.io_cost)

    @property
    def storage_cost(self) -> float:
        return self.dram_cost + self.flash_cost

    @property
    def execution_cost(self) -> float:
        return self.processor_cost + self.io_cost

    @property
    def cost_per_operation(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.total * self.window_seconds / self.operations


def meter_bill(machine: Machine,
               summary: Optional[RunSummary] = None,
               catalog: Optional[CostCatalog] = None,
               window_seconds: Optional[float] = None) -> CostBill:
    """Price a machine's current accounting window.

    * DRAM: resident bytes x $M.
    * Flash: stored bytes x $Fl.
    * Processor: $P scaled by the fraction of total core capacity the
      window actually used (renting idle cores is free only if you can
      deploy them elsewhere — which is the paper's "assign more or fewer
      cores" adaptation, so we bill only what was used).
    * I/O: $I scaled by the fraction of the device's IOPS consumed.

    ``window_seconds`` defaults to the summary's elapsed virtual time; for
    workloads driven with think time (clock advanced explicitly), pass the
    wall-clock window instead.
    """
    cat = catalog if catalog is not None else CostCatalog()
    run = summary if summary is not None else machine.summary()
    window = window_seconds if window_seconds is not None \
        else run.elapsed_seconds
    if window <= 0:
        window = 1e-12
    cpu_fraction = min(
        1.0, run.cpu_busy_seconds / (window * run.cores)
    )
    io_rate = run.ssd_ios / window
    io_fraction = min(1.0, io_rate / machine.ssd.spec.iops)
    return CostBill(
        dram_cost=machine.dram.current_bytes * cat.dram_per_byte,
        flash_cost=machine.ssd.stored_bytes * cat.flash_per_byte,
        processor_cost=cat.processor_dollars * cpu_fraction,
        io_cost=machine.ssd.spec.iops_price_dollars * io_fraction,
        window_seconds=window,
        operations=run.operations,
    )


@dataclass(frozen=True)
class RunPrice:
    """One run's Eq. (4)-(5) bill, in dollars per operation."""

    exec_dollars_per_op: float
    io_dollars_per_op: float
    log_io_dollars_per_op: float
    dram_dollars_per_op: float
    tier_dollars_per_op: float

    @property
    def dollars_per_op(self) -> float:
        return (self.exec_dollars_per_op + self.io_dollars_per_op
                + self.log_io_dollars_per_op + self.dram_dollars_per_op
                + self.tier_dollars_per_op)


def price_run(
    ops: int,
    cores: int,
    core_seconds: float,
    elapsed_seconds: float,
    ssd_ios: float,
    dram_bytes: int = 0,
    log_device_writes: int = 0,
    tier_bytes: int = 0,
    tier_dollars_per_byte: float = 0.0,
    catalog: Optional[CostCatalog] = None,
) -> RunPrice:
    """Price a run per operation in the paper's Eq. (4)-(5) terms.

    Each term is capital dollars times the fraction of that capital the
    run kept busy, per op:

    * execution (``$P/ROPS``): ``$P * core_s / (cores * ops)``;
    * I/O (``$I/IOPS``): ``$I * ios / (IOPS * ops)`` for the data SSD
      and, for ``log_device_writes`` on a shared log drive,
      the same per-access price (colocated log writes are already in
      ``ssd_ios``, so callers pass 0);
    * DRAM rent (``Ps*$M``) and far-tier rent, each tier's end-of-run
      resident bytes at its own $/byte over the run's virtual elapsed
      time: ``$/byte * bytes * elapsed / ops``.

    A quantity a caller does not bill stays at its zero default and
    contributes exactly ``0.0``, so the total is unchanged by it.  Every
    caller prices through these expressions, so bit-equal inputs price
    to bit-equal dollars.
    """
    if ops < 1:
        raise ValueError(f"pricing needs at least one op, got {ops}")
    cat = catalog if catalog is not None else CostCatalog()
    return RunPrice(
        exec_dollars_per_op=(cat.processor_dollars * core_seconds
                             / (cores * ops)),
        io_dollars_per_op=cat.ssd_io_dollars * ssd_ios / (cat.iops * ops),
        log_io_dollars_per_op=(cat.ssd_io_dollars * log_device_writes
                               / (cat.iops * ops)),
        dram_dollars_per_op=(cat.dram_per_byte * dram_bytes
                             * elapsed_seconds / ops),
        tier_dollars_per_op=(tier_dollars_per_byte * tier_bytes
                             * elapsed_seconds / ops),
    )
