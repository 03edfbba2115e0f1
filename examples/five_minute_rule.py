#!/usr/bin/env python3
"""The updated five-minute rule, interactively (paper Section 4.2).

Prices MM and SS operations with the paper's 2018 cost catalog, derives
the ~45-second breakeven interval from Equation (6), and shows how the
rule moves with page size, SSD IOPS pricing, and the I/O execution path —
the levers Sections 6 and 7 of the paper pull.

Run:  python examples/five_minute_rule.py
"""

from repro.bench import format_table
from repro.core import (
    CostCatalog,
    breakeven_interval_seconds,
    breakeven_report,
    classic_gray_interval_seconds,
    iops_price_sweep,
    record_cache_breakeven_seconds,
)


def main() -> None:
    catalog = CostCatalog.paper_2018()
    report = breakeven_report(catalog)
    cpu_share = report.cpu_term_seconds / report.interval_seconds

    print("The updated five-minute rule (Equation 6)")
    print("=" * 55)
    print(f"breakeven interval Ti : {report.interval_seconds:6.1f} s")
    print(f"  I/O device term     : {report.io_term_seconds:6.1f} s")
    print(f"  CPU path term       : {report.cpu_term_seconds:6.1f} s "
          f"({cpu_share:.0%} of the total — the paper's "
          "addition)")
    print(f"Gray's original rule  : "
          f"{classic_gray_interval_seconds(catalog):6.1f} s "
          "(I/O term only)")
    print(f"storage cost ratio    : {report.storage_cost_ratio:5.1f}x "
          "(MM vs SS)")
    print(f"execution cost ratio  : {report.execution_cost_ratio:5.1f}x "
          "(SS vs MM)")

    print("\nEvict a page once it has been idle longer than "
          f"{report.interval_seconds:.0f} seconds.\n")

    sizes = [512, 1024, 2700, 4096, 8192, 16384]
    rows = [
        [f"{size:,} B",
         f"{breakeven_interval_seconds(catalog.with_page_bytes(size)):.1f} s"]
        for size in sizes
    ]
    print(format_table(["page size", "breakeven Ti"], rows,
                       title="Sensitivity: page size (Ps divides Ti)"))

    print()
    iops = [1e5, 2e5, 3e5, 5e5, 1e6]
    rows = [
        [f"{value:,.0f}", f"{interval:.1f} s"]
        for value, interval in zip(iops, iops_price_sweep(catalog, iops))
    ]
    print(format_table(["SSD IOPS (same $)", "breakeven Ti"], rows,
                       title="Sensitivity: SSD IOPS price decline (§7.1.2)"))

    print()
    rows = [
        ["page (whole 2.7 KB)", f"{report.interval_seconds:.1f} s"],
        ["record, 10 per page",
         f"{record_cache_breakeven_seconds(catalog, 10):.0f} s"],
        ["record, 20 per page",
         f"{record_cache_breakeven_seconds(catalog, 20):.0f} s"],
    ]
    print(format_table(["cached unit", "breakeven Ti"], rows,
                       title="Record caching keeps units ~10x longer (§6.3)"))

    print()
    rows = []
    for r, label in ((9.0, "kernel I/O path"),
                     (5.8, "user-level I/O (SPDK)"),
                     (3.0, "hypothetical future path")):
        interval = breakeven_report(catalog.with_r(r)).interval_seconds
        rows.append([label, f"R = {r:.1f}", f"{interval:.1f} s"])
    print(format_table(["I/O execution path", "R", "breakeven Ti"], rows,
                       title="Cheaper I/O paths shrink the breakeven (§7.1.1)"))


if __name__ == "__main__":
    main()
