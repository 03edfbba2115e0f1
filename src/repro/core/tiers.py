"""N-tier hierarchies as cost lines.

The operational payoff of the paper's analysis: a data caching system can
*choose*, per page, the cheapest way to hold it — DRAM-cached (MM), on
flash (SS), or compressed on flash (CSS) — from nothing but the page's
access rate (Sections 4.2, 7.2); :func:`~repro.core.costmodel.cheapest`
over the MM/SS/CSS lines makes that choice.  :func:`hierarchy_lines`
prices every tier of a :class:`~repro.hardware.tiers.StorageHierarchy`
as a :class:`~repro.core.costmodel.CostLine` so the same
:class:`~repro.core.costmodel.Advisor` places pages in an N-tier stack.
"""

from __future__ import annotations

from typing import List

from ..hardware.tiers import StorageHierarchy
from .catalog import CostCatalog
from .costmodel import CostLine


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
