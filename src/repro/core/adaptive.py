"""Cost-driven adaptive caching (paper Sections 4.2 and 8.4).

The paper's operational conclusion: "managing data cost effectively means
being able to reduce storage costs when data is cold, and reduce execution
cost when it is hot.  That is exactly what data caching systems are
designed to do."  The hot set also moves over time, so the policy cannot
be a fixed cache size — it is the Equation (6) breakeven applied *online*:
evict any page idle longer than Ti, keep anything hotter, and let the DRAM
footprint float to whatever the workload's hot set currently needs.

:class:`AdaptiveCacheController` implements that policy over a Bw-tree.
It needs meaningful *time*, so workloads drive the virtual clock with
inter-arrival think time (see :class:`PacedDriver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..bwtree.tree import BwTree
from ..hardware.machine import Machine
from .breakeven import breakeven_interval_seconds
from .catalog import CostCatalog


class AdaptiveCacheController:
    """Applies the breakeven-interval eviction rule to a Bw-tree.

    The tree should run with an *uncapped* cache: capacity is not the
    control variable, cost is.  Call :meth:`maybe_sweep` from the workload
    loop (cheap: it rate-limits itself to one sweep per ``sweep_interval``
    of virtual time).
    """

    def __init__(self, tree: BwTree,
                 catalog: Optional[CostCatalog] = None,
                 sweep_interval_seconds: Optional[float] = None) -> None:
        self.tree = tree
        self.catalog = catalog if catalog is not None else CostCatalog()
        self.ti_seconds = breakeven_interval_seconds(self.catalog)
        self.sweep_interval_seconds = (
            sweep_interval_seconds if sweep_interval_seconds is not None
            else self.ti_seconds / 4.0
        )
        tree.cache.ti_seconds = self.ti_seconds
        self._last_sweep = tree.machine.clock.now

    def maybe_sweep(self) -> int:
        """Evict pages idle past the breakeven, at most once per interval.

        Returns the number of pages evicted by this call.
        """
        now = self.tree.machine.clock.now
        if now - self._last_sweep < self.sweep_interval_seconds:
            return 0
        self._last_sweep = now
        return self.tree.cache.evict_idle_pages()

    def resident_fraction(self) -> float:
        """Fraction of the tree's pages currently DRAM-resident."""
        total = len(self.tree.mapping_table)
        if total == 0:
            return 0.0
        return self.tree.cache.resident_pages / total


@dataclass
class PacedPhaseStats:
    """What one paced workload phase did and cost."""

    name: str
    operations: int = 0
    ss_operations: int = 0
    resident_bytes_end: int = 0

    @property
    def ss_fraction(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.ss_operations / self.operations


class PacedDriver:
    """Drives a store at a target offered rate by advancing virtual time.

    The paper's Ti is *seconds between accesses*; for eviction policies
    keyed on it, the simulation must model real inter-arrival time, not
    just execution time.  Each operation advances the clock by
    ``1 / offered_ops_per_sec``.
    """

    def __init__(self, tree: BwTree, offered_ops_per_sec: float,
                 controller: Optional[AdaptiveCacheController] = None
                 ) -> None:
        if offered_ops_per_sec <= 0:
            raise ValueError("offered rate must be positive")
        self.tree = tree
        self.machine: Machine = tree.machine
        self.think_seconds = 1.0 / offered_ops_per_sec
        self.controller = controller

    def run_phase(self, name: str, keys: Iterable[bytes],
                  values: Optional[Iterable[bytes]] = None
                  ) -> PacedPhaseStats:
        """Execute one phase: a read (or upsert) per key with think time.

        ``keys`` is an iterable of keys to read; when ``values`` is given
        (an iterable of equal length) the phase performs upserts instead.
        """
        stats = PacedPhaseStats(name=name)
        value_iter = iter(values) if values is not None else None
        for key in keys:
            self.machine.clock.advance(self.think_seconds)
            if value_iter is None:
                result = self.tree.get_with_stats(key)
            else:
                result = self.tree.upsert(key, next(value_iter))
            stats.operations += 1
            if result.is_ss:
                stats.ss_operations += 1
            if self.controller is not None:
                self.controller.maybe_sweep()
        stats.resident_bytes_end = self.tree.cache.resident_bytes
        return stats
