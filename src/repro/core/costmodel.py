"""Operation pricing: every operation class is one cost line.

The paper prices an operation class as a straight line in the access
rate N — a storage rental term (per page, per second) plus N times a
per-access execution cost:

* ``$MM = Ps*($M + $Fl) + N * $P/ROPS``                      (Equation 4)
* ``$SS = Ps*$Fl + N * ($I/IOPS + R*$P/ROPS)``               (Equation 5)
* ``$CSS`` adds a compression ratio to the flash term and decompression
  CPU to the execution term (Figure 8's third line).

and every rule it derives — Equation (6)'s 45 seconds, Figure 8's
CSS/SS/MM regions, the Section 8.2 NVRAM band, Equation (8)'s 8.3e3/S —
is where two such lines cross.  :class:`CostLine` is that line,
:func:`crossover` the one intersection, :func:`cheapest` the argmin and
:class:`Advisor` the lower envelope over whichever lines the caller
wants compared.  The lines themselves come from thin constructors next
to the parameters that define them: :class:`OperationCostModel` here,
:func:`repro.core.technology.nvm_line` / ``cmm_line``,
:func:`repro.core.tiers.hierarchy_lines` and
:class:`repro.core.mainmemory.MainMemoryComparison`.

All values carry the paper's implicit 1/L factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..frozen import ABOVE_ZERO, UP_TO_ONE, check_bounds
from .catalog import CostCatalog


@dataclass(frozen=True)
class OperationCost:
    """A priced operation class at a given access rate."""

    kind: str
    rate_ops_per_sec: float
    storage_cost: float
    execution_cost: float

    @property
    def total(self) -> float:
        return self.storage_cost + self.execution_cost


@dataclass(frozen=True)
class CostLine:
    """One operation class: ``storage_cost + N * execution_cost_per_op``."""

    kind: str
    storage_cost: float
    execution_cost_per_op: float

    def at(self, rate_ops_per_sec: float) -> OperationCost:
        """The class priced at access rate N (per page, per second)."""
        if rate_ops_per_sec < 0:
            raise ValueError(
                f"access rate cannot be negative: {rate_ops_per_sec}"
            )
        return OperationCost(
            kind=self.kind,
            rate_ops_per_sec=rate_ops_per_sec,
            storage_cost=self.storage_cost,
            execution_cost=rate_ops_per_sec * self.execution_cost_per_op,
        )

    def totals(self, rates: Sequence[float]) -> List[float]:
        """Total cost at each rate: the series the figures plot."""
        return [self.at(rate).total for rate in rates]


def crossover(hot: CostLine, cold: CostLine) -> float:
    """The access rate above which ``hot`` is cheaper than ``cold``.

    ``hot`` is the class that costs more to hold and less to access;
    the lines cross where the rent gap equals the access-cost gap times
    the rate (Gray's five-minute rule as one ratio).  One edge rule for
    every pair: if ``hot`` costs no more to hold it wins at every rate
    (``0.0``); otherwise, if it is no cheaper to access it never pays
    its rent back (``inf``).
    """
    storage_gap = hot.storage_cost - cold.storage_cost
    if storage_gap <= 0:
        return 0.0
    execution_gap = cold.execution_cost_per_op - hot.execution_cost_per_op
    if execution_gap <= 0:
        return math.inf
    return storage_gap / execution_gap


def cheapest(lines: Sequence[CostLine],
             rate_ops_per_sec: float) -> OperationCost:
    """The lowest-total-cost class at this rate; ties go to the earlier."""
    return min((line.at(rate_ops_per_sec) for line in lines),
               key=lambda cost: cost.total)


class Advisor:
    """Chooses among cost lines by access rate.

    Selection is the argmin over the lines (:func:`cheapest`), so choosing
    and pricing can never disagree; :meth:`boundaries` is the same policy
    as thresholds — the lower envelope of the lines.
    """

    def __init__(self, lines: Sequence[CostLine]) -> None:
        self.lines = tuple(lines)
        kinds = [line.kind for line in self.lines]
        if not kinds or len(set(kinds)) != len(kinds):
            raise ValueError(
                f"an advisor needs distinctly named lines, got {kinds}"
            )

    def costs_at(self, rate_ops_per_sec: float) -> Dict[str, float]:
        """Total modeled cost per line kind at one rate."""
        return {line.kind: line.at(rate_ops_per_sec).total
                for line in self.lines}

    def tier_for_rate(self, rate_ops_per_sec: float) -> str:
        """The kind of the cheapest line at this per-page access rate."""
        return cheapest(self.lines, rate_ops_per_sec).kind

    def tier_for_interval(self, seconds_between_accesses: float) -> str:
        """Cheapest kind given the time between accesses (the paper's Ti)."""
        if seconds_between_accesses <= 0:
            raise ValueError("access interval must be positive")
        return self.tier_for_rate(1.0 / seconds_between_accesses)

    def boundaries(self) -> List[Tuple[str, str, float]]:
        """``(hotter kind, colder kind, rate)`` where the winner changes.

        The lower envelope, hottest boundary first: a line that is never
        the cheapest (dominated) appears in no boundary.  Walks up from
        rate zero — the line cheapest to hold — always moving to the
        cheaper-to-access line that takes over first.
        """
        current = min(self.lines, key=lambda line: (
            line.storage_cost, line.execution_cost_per_op))
        found: List[Tuple[str, str, float]] = []
        while True:
            hotter_lines = [
                line for line in self.lines
                if line.execution_cost_per_op
                < current.execution_cost_per_op
            ]
            if not hotter_lines:
                return found[::-1]
            hotter = min(hotter_lines, key=lambda line: (
                crossover(line, current), line.execution_cost_per_op))
            found.append(
                (hotter.kind, current.kind, crossover(hotter, current)))
            current = hotter


@dataclass(frozen=True)
class CssParameters:
    """What the compressed tier costs beyond plain SS.

    ``compression_ratio`` is compressed/raw size in (0, 1]; ``r_css`` is the
    execution-cost ratio of a CSS operation to an MM operation — an SS
    operation plus decompression (measure it with
    :mod:`repro.core.calibration` or the compression benchmarks).
    """

    compression_ratio: float = 0.5
    r_css: float = 8.0

    BOUNDS = {"compression_ratio": (ABOVE_ZERO, UP_TO_ONE),
              "r_css": (ABOVE_ZERO, math.inf)}

    def __post_init__(self) -> None:
        check_bounds(self)


class OperationCostModel:
    """The MM, SS and CSS lines of a :class:`CostCatalog`."""

    def __init__(self, catalog: CostCatalog | None = None,
                 css: CssParameters | None = None) -> None:
        self.catalog = catalog if catalog is not None else CostCatalog()
        self.css = css if css is not None else CssParameters()

    def mm_line(self) -> CostLine:
        """Equation (4): a main-memory operation (DRAM + flash copy)."""
        cat = self.catalog
        return CostLine("MM", cat.mm_storage_cost(),
                        cat.mm_execution_cost_per_op)

    def ss_line(self) -> CostLine:
        """Equation (5): a secondary-storage operation."""
        cat = self.catalog
        return CostLine("SS", cat.ss_storage_cost(),
                        cat.ss_execution_cost_per_op)

    def css_line(self) -> CostLine:
        """Figure 8's compressed-secondary-storage operation."""
        cat = self.catalog
        return CostLine(
            "CSS",
            cat.flash_per_byte * cat.page_bytes * self.css.compression_ratio,
            cat.io_cost_per_op
            + self.css.r_css * cat.mm_execution_cost_per_op,
        )


def logspace_rates(low: float, high: float, count: int) -> List[float]:
    """Log-spaced access rates for plotting cost curves."""
    if low <= 0 or high <= low:
        raise ValueError("need 0 < low < high")
    if count < 2:
        raise ValueError("need at least two points")
    step = (math.log(high) - math.log(low)) / (count - 1)
    return [math.exp(math.log(low) + i * step) for i in range(count)]
