"""Cache sizing and N-tier hierarchies as cost lines.

The operational payoff of the paper's analysis: a data caching system can
*choose*, per page, the cheapest way to hold it — DRAM-cached (MM), on
flash (SS), or compressed on flash (CSS) — from nothing but the page's
access rate (Sections 4.2, 7.2).  ``CacheSizingAdvisor`` turns a per-page
access histogram into the DRAM budget that minimizes total cost, which
is the cache-size decision the paper says should replace "just buy more
DRAM"; :func:`hierarchy_lines` prices every tier of a
:class:`~repro.hardware.tiers.StorageHierarchy` as a
:class:`~repro.core.costmodel.CostLine` so the same
:class:`~repro.core.costmodel.Advisor` places pages in an N-tier stack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..hardware.tiers import StorageHierarchy
from .catalog import CostCatalog
from .costmodel import CostLine, CssParameters, OperationCostModel, cheapest


def hierarchy_lines(hierarchy: StorageHierarchy,
                    catalog: CostCatalog | None = None) -> List[CostLine]:
    """One cost line per tier of ``hierarchy``, fastest tier first.

        cost(tier, N) = Ps * (tier $/byte + home rent)
                        + N * ($Io/IOPS + R_tier * $P/ROPS)

    where the home rent applies to every tier *except* the durable home
    itself (inclusive caching: the durable copy is paid for regardless
    of where the page is also cached).  Slopes increase down the stack,
    so the winning line only moves up-stack as the rate grows, and every
    envelope boundary between adjacent tiers agrees with
    :func:`repro.core.breakeven.tier_pair_breakeven` (pinned by tests).
    """
    cat = catalog if catalog is not None else CostCatalog()
    home = hierarchy.home
    lines: List[CostLine] = []
    for tier in hierarchy:
        rent = tier.dollars_per_byte + (
            0.0 if tier.durable_home else home.dollars_per_byte
        )
        per_access = (tier.io_dollars_per_access_rate
                      + tier.cpu_path_r * cat.processor_dollars / cat.rops)
        lines.append(CostLine(tier.name, rent * cat.page_bytes, per_access))
    return lines


@dataclass(frozen=True)
class CacheSizingResult:
    """Outcome of sizing a DRAM cache against an access histogram."""

    cached_pages: int
    cache_bytes: float
    total_cost: float
    tier_of_page: Tuple[str, ...]

    @property
    def tier_counts(self) -> Counter[str]:
        """Pages per line kind (a kind that won no page counts 0)."""
        return Counter(self.tier_of_page)


class CacheSizingAdvisor:
    """Sizes the page cache to minimize total cost for a known heat map.

    Because the per-page cost curves cross exactly once, the optimal policy
    is a threshold: cache every page whose access rate exceeds the Equation
    (6) breakeven, leave the rest on flash — compressed flash too when
    ``css`` parameters are given.
    """

    def __init__(self, catalog: CostCatalog | None = None,
                 css: CssParameters | None = None) -> None:
        self.catalog = catalog if catalog is not None else CostCatalog()
        model = OperationCostModel(self.catalog, css)
        self.mm = model.mm_line()
        self.ss = model.ss_line()
        self.lines: Tuple[CostLine, ...] = (self.mm, self.ss)
        if css is not None:
            self.lines += (model.css_line(),)

    def size_for(self, page_rates: Sequence[float]) -> CacheSizingResult:
        """Pick the cheapest tier per page and total it up.

        ``page_rates`` are accesses/second per page (any order).  Tier
        selection and costing come from the *same*
        :func:`~repro.core.costmodel.cheapest` call, so they cannot
        disagree (pinned by a regression test).
        """
        winners = [cheapest(self.lines, rate) for rate in page_rates]
        tiers = tuple(winner.kind for winner in winners)
        cached = tiers.count(self.mm.kind)
        return CacheSizingResult(
            cached_pages=cached,
            cache_bytes=cached * self.catalog.page_bytes,
            total_cost=sum(winner.total for winner in winners),
            tier_of_page=tiers,
        )

    def cost_if_all_cached(self, page_rates: Sequence[float]) -> float:
        """The "main-memory system" alternative: everything in DRAM."""
        return sum(self.mm.totals(page_rates))

    def cost_if_none_cached(self, page_rates: Sequence[float]) -> float:
        """The "no cache" alternative: every access is an SS operation."""
        return sum(self.ss.totals(page_rates))
