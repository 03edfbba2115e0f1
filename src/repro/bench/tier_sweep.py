"""``python -m repro tiers``: the N-tier breakeven surface.

Renders Equation (6) generalized across every adjacent boundary of the
preset storage hierarchies (:class:`~repro.hardware.tiers.
StorageHierarchy`), Figure-2 style: one row per tier pair with the
breakeven interval, the breakeven rate, and how much of the interval the
CPU path contributes — the paper's headline observation, extended to
2026 hardware.  A logspace rate sweep then shows which of the
hierarchy's cost lines (:func:`~repro.core.tiers.hierarchy_lines`) is
cheapest across eight decades of access rate, which is the demotion
policy the engine's page cache executes (``demote_to_tiers``).

Everything is closed-form arithmetic on the virtual cost catalog — no
randomness, no wall clock — so the output is byte-deterministic
(``--smoke`` additionally asserts the invariants CI relies on).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..core.breakeven import (
    breakeven_interval_seconds,
    hierarchy_breakeven_surface,
    tier_pair_breakeven,
)
from ..core.catalog import CostCatalog
from ..core.costmodel import Advisor, cheapest, logspace_rates
from ..core.tiers import hierarchy_lines
from ..hardware.tiers import StorageHierarchy

#: The hierarchies the sweep covers, in render order.
PRESETS = ("paper-2018", "cxl-2026", "modern-2026")


def _hierarchy(preset: str) -> StorageHierarchy:
    if preset == "paper-2018":
        return StorageHierarchy.paper_2018()
    if preset == "cxl-2026":
        return StorageHierarchy.cxl_2026()
    if preset == "modern-2026":
        return StorageHierarchy.modern_2026()
    raise ValueError(f"unknown hierarchy preset {preset!r}")


def render_surface(catalog: Optional[CostCatalog] = None) -> str:
    """The full report: per-pair breakevens plus the advisor sweep."""
    cat = catalog if catalog is not None else CostCatalog()
    lines: List[str] = []
    lines.append("N-tier breakeven surface (Equation 6 per tier pair)")
    lines.append(
        f"  catalog: $P={cat.processor_dollars:.0f} ROPS={cat.rops:.2e} "
        f"Ps={cat.page_bytes:.0f}B"
    )
    for preset in PRESETS:
        hierarchy = _hierarchy(preset)
        lines.append("")
        lines.append(f"[{preset}] " + " > ".join(t.name for t in hierarchy))
        lines.append(
            f"  {'boundary':<32s} {'Ti (s)':>12s} {'N (/s)':>12s} "
            f"{'cpu share':>10s}"
        )
        for row in hierarchy_breakeven_surface(hierarchy, cat):
            boundary = f"{row.upper} / {row.lower}"
            lines.append(
                f"  {boundary:<32s} {row.interval_seconds:>12.3f} "
                f"{row.rate_ops_per_sec:>12.6f} "
                f"{row.cpu_term_fraction:>9.1%}"
            )
    lines.append("")
    lines.append("cheapest tier by access rate (modern-2026 advisor)")
    modern = hierarchy_lines(_hierarchy("modern-2026"), cat)
    for rate in logspace_rates(1e-6, 1e2, 9):
        winner = cheapest(modern, rate)
        lines.append(
            f"  {rate:>12.2e} ops/s -> {winner.kind:<16s} "
            f"(${winner.total:.3e}/page)"
        )
    return "\n".join(lines)


def smoke_check(catalog: Optional[CostCatalog] = None) -> List[str]:
    """The invariants CI pins; returns failure messages (empty = pass)."""
    cat = catalog if catalog is not None else CostCatalog()
    failures: List[str] = []
    # 1. The 2-tier hierarchy reduces exactly to Equation (6).
    p18 = StorageHierarchy.paper_2018()
    rows = hierarchy_breakeven_surface(p18, cat)
    eq6 = breakeven_interval_seconds(cat)
    if rows[0].interval_seconds != eq6:
        failures.append(
            f"paper-2018 DRAM/NVMe breakeven {rows[0].interval_seconds!r} "
            f"!= Equation (6) {eq6!r}"
        )
    # 2. Every preset's surface is monotone increasing down the stack,
    #    and the modern surface covers >= 3 boundaries.
    for preset in PRESETS:
        surface = hierarchy_breakeven_surface(_hierarchy(preset), cat)
        intervals = [row.interval_seconds for row in surface]
        if any(b <= a for a, b in zip(intervals, intervals[1:])):
            failures.append(
                f"{preset}: breakeven intervals not monotone: {intervals}"
            )
    modern = hierarchy_breakeven_surface(_hierarchy("modern-2026"), cat)
    if len(modern) < 3:
        failures.append(
            f"modern-2026 surface has {len(modern)} pairs, expected >= 3"
        )
    # 3. The advisor agrees with the per-pair thresholds: wherever both
    #    tiers of an adjacent pair are on the lower envelope the boundary
    #    rate is 1 / tier_pair_breakeven, the winner flips from the colder
    #    to the hotter tier across it, and the winner only ever moves
    #    up-stack as the rate rises (demotion is a threshold policy).
    for preset in PRESETS:
        hierarchy = _hierarchy(preset)
        advisor = Advisor(hierarchy_lines(hierarchy, cat))
        order = [tier.name for tier in hierarchy]
        for hot, cold, rate in advisor.boundaries():
            if order.index(cold) - order.index(hot) == 1:
                closed_form = 1.0 / tier_pair_breakeven(
                    hierarchy.get(hot), hierarchy.get(cold), cat)
                if abs(rate / closed_form - 1.0) > 1e-12:
                    failures.append(
                        f"{preset}: {hot}/{cold} envelope boundary "
                        f"{rate!r} != 1 / tier_pair_breakeven "
                        f"{closed_form!r}"
                    )
            below = advisor.tier_for_rate(rate * 0.99)
            above = advisor.tier_for_rate(rate * 1.01)
            if (below, above) != (cold, hot):
                failures.append(
                    f"{preset}: winner goes {below} -> {above} across "
                    f"the {hot}/{cold} boundary at {rate:.3e}/s"
                )
        previous = len(order) - 1
        for rate in logspace_rates(1e-8, 1e4, 121):
            index = order.index(advisor.tier_for_rate(rate))
            if index > previous:
                failures.append(
                    f"{preset}: advisor tier moved down-stack as rate "
                    f"rose at {rate:.3e}/s"
                )
            previous = index
    # 4. Deterministic render: two evaluations are byte-identical.
    if render_surface(cat) != render_surface(cat):
        failures.append("render_surface is not deterministic")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro tiers",
        description=(
            "Per-tier-pair breakeven surface over the preset storage "
            "hierarchies (Equation 6, N-tier generalization)."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="assert the CI invariants (exact Eq. 6 reduction, monotone "
             "surface, advisor/per-pair threshold agreement) and exit "
             "non-zero on failure",
    )
    args = parser.parse_args(argv)
    print(render_surface())
    if args.smoke:
        failures = smoke_check()
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        print(f"\nsmoke: {'FAILED' if failures else 'OK'}")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":   # pragma: no cover - module CLI
    sys.exit(main())
