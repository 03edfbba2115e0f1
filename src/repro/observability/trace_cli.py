"""``python -m repro trace``: seeded workload replay with full tracing.

Replays a deterministic YCSB mix against a freshly loaded engine (or
shard fleet) with a :class:`~repro.observability.spans.Tracer` attached,
verifies the reconciliation contract (traced totals equal ``stats()``
exactly), and emits one of:

* ``--format json`` (default) — the deterministic span-tree export; the
  same ``--seed`` and config produce byte-identical output;
* ``--format report`` — the plain-text "$ per op by component" report
  citing Eq. (4)-(5) terms by name.

Everything runs on virtual time; no wall clocks.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.catalog import CostCatalog
from ..core.costmeter import price_run
from ..deuteronomy.engine import stats_window
from ..hardware.metrics import ordered_sum
from ..scenarios import MIX_BUILDERS, Scenario, fleet_totals
from .spans import Tracer, export_json

#: Relative tolerance for re-summing per-span CPU buckets with fsum
#: against the event-ordered running total: float addition is not
#: associative, so regrouping the same charges can differ by a few ULPs.
FSUM_REL_TOL = 1e-9


def run_traced(scenario: Scenario) -> Tuple[List[Tracer], dict, dict]:
    """Load, warm, trace and replay; returns (tracers, stats, metrics).

    ``stats`` is ``engine.stats()`` (bare engine) or
    ``ShardedEngine.stats()`` (fleet); ``metrics`` holds the
    :data:`~repro.deuteronomy.engine.STATS` rows over the traced window
    (``stats``, same names for an engine and a fleet) and the measured
    operations' latency distribution (``latency_us``).  Tracers attach
    immediately after ``prepare()`` resets accounting, establishing the
    bit-exact reconciliation baseline.
    """
    run = scenario.prepare()
    tracers = [Tracer(machine) for machine in run.machines]
    for tracer in tracers:
        tracer.machine.attach_tracer(tracer)
    before = fleet_totals(run.engine.stats())
    run.drive()
    stats = run.engine.stats()
    latencies = run.latencies
    metrics = {
        "stats": stats_window(before, fleet_totals(stats)),
        "latency_us": {
            "count": float(latencies.count),
            "mean": latencies.mean,
            "p50": latencies.percentile(50),
            "p99": latencies.percentile(99),
            "max": latencies.maximum,
        },
    }
    return tracers, stats, metrics


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------

def verify_reconciliation(tracers: List[Tracer], stats: dict) -> dict:
    """Assert the tracing totals equal the engine/fleet accounting.

    Exact (bit-identical) checks: traced core-seconds vs
    ``stats()['core_seconds']`` and traced device I/Os vs ``ssd_ios``
    (both are scalar differences against an attach-time baseline of
    exactly zero).  fsum checks at :data:`FSUM_REL_TOL` (float addition
    is not associative, so regrouping the same charges can differ by a
    few ULPs): per-category counters re-sum to the busy total; span
    windows partition the root windows; and the per-span category
    buckets re-sum to the machine's own counters.
    Returns a summary dict (all booleans true, by construction — an
    inconsistency raises AssertionError).
    """
    fleet = "fleet" in stats
    target = fleet_totals(stats)
    core_seconds = [t.total_core_seconds() for t in tracers]
    traced_core = ordered_sum(core_seconds) if fleet else core_seconds[0]
    assert traced_core == target["core_seconds"], (
        f"traced core-seconds {traced_core!r} != stats "
        f"{target['core_seconds']!r}"
    )
    ios = [t.traced_ssd_ios() for t in tracers]
    traced_ios = sum(ios) if fleet else ios[0]
    assert traced_ios == target["ssd_ios"], (
        f"traced ssd ios {traced_ios} != stats {target['ssd_ios']}"
    )
    for tracer in tracers:
        totals = tracer.totals()
        # Per-category counters and the busy scalar are accumulated
        # independently; their agreement is a real cross-check.
        category_sum = math.fsum(totals.values())
        assert math.isclose(category_sum, tracer.total_us,
                            rel_tol=FSUM_REL_TOL, abs_tol=1e-9), (
            f"category fsum {category_sum!r} vs busy {tracer.total_us!r}"
        )
        # Span self-windows partition the root windows exactly.
        span_sum = tracer.span_cpu_us()
        root_sum = tracer.root_cpu_us()
        assert math.isclose(span_sum, root_sum,
                            rel_tol=FSUM_REL_TOL, abs_tol=1e-9), (
            f"span fsum {span_sum!r} vs root windows {root_sum!r}"
        )
        # Root windows cannot exceed everything charged.
        assert root_sum <= tracer.total_us * (1.0 + FSUM_REL_TOL) + 1e-9
        _verify_buckets(tracer, totals)
        covered = sum(root.ssd_ios for root in tracer.roots)
        assert covered <= tracer.traced_ssd_ios()
    return {
        "core_seconds_exact": True,
        "ssd_ios_exact": True,
        "categories_exact": True,
        "span_fsum_rel_tol": FSUM_REL_TOL,
    }


def _verify_buckets(tracer: Tracer, totals: Dict[str, float]) -> None:
    """Per-span charge buckets re-sum to the counters."""
    parts: Dict[str, List[float]] = {}

    def collect(span) -> None:
        for category, us in span.cpu_us.items():
            parts.setdefault(category, []).append(us)
        for child in span.children:
            collect(child)

    for root in tracer.roots:
        collect(root)
    for category, us in tracer.unattributed.items():
        parts.setdefault(category, []).append(us)
    for category in set(parts) | set(totals):
        bucket_sum = math.fsum(parts.get(category, ()))
        total = totals.get(category, 0.0)
        assert math.isclose(bucket_sum, total,
                            rel_tol=FSUM_REL_TOL, abs_tol=1e-9), (
            f"category {category!r}: bucket fsum {bucket_sum!r} "
            f"vs counter {total!r}"
        )


# ---------------------------------------------------------------------------
# the "$ per op by component" report
# ---------------------------------------------------------------------------

def cost_report(
    tracers: List[Tracer],
    stats: dict,
    op_count: int,
    catalog: Optional[CostCatalog] = None,
) -> str:
    """Per-component dollars per operation, in the paper's own terms.

    Eq. (4): ``$MM = Ps*($M + $Fl) + N*$P/ROPS``
    Eq. (5): ``$SS = Ps*$Fl + N*($I/IOPS + R*$P/ROPS)``

    The measured generalizations reported here:

    * execution term (``$P/ROPS``): a component that billed ``c``
      core-seconds over ``ops`` operations costs
      ``$P * c / (cores * ops)`` per op — at the paper's calibration
      (1 us/op on all 4 cores) this is exactly ``$P/ROPS``;
    * I/O term (``$I/IOPS``): a component whose spans performed ``n``
      device I/Os costs ``$I * n / (IOPS * ops)`` per op;
    * storage-rent term (``Ps*$M``): resident DRAM bytes per allocation
      tag, priced at ``$M`` per byte (capital tied up serving the
      working set; Eq. (4) charges it per resident page ``Ps``).
    """
    catalog = catalog if catalog is not None else CostCatalog()
    fleet = "fleet" in stats
    cores = tracers[0].machine.cpu.cores

    cpu_by_component: Dict[str, float] = {}
    ios_by_component: Dict[str, int] = {}
    dram_by_tag: Dict[str, int] = {}
    for tracer in tracers:
        for component, us in tracer.cpu_us_by_component().items():
            cpu_by_component[component] = (
                cpu_by_component.get(component, 0.0) + us)
        for component, n in tracer.ssd_ios_by_component().items():
            ios_by_component[component] = (
                ios_by_component.get(component, 0) + n)
        for tag, nbytes in tracer.machine.dram.by_tag().items():
            dram_by_tag[tag] = dram_by_tag.get(tag, 0) + nbytes

    def row(label: str, us: float, ios: int) -> str:
        price = price_run(ops=op_count, cores=cores,
                          core_seconds=us * 1e-6, elapsed_seconds=0.0,
                          ssd_ios=ios, catalog=catalog)
        return (
            f"  {label:<14s} {us / op_count:>11.4f} "
            f"{price.exec_dollars_per_op:>12.3e} "
            f"{ios / op_count:>8.4f} {price.io_dollars_per_op:>12.3e}"
        )

    lines = [
        "$ per op by component "
        f"({'fleet of ' + str(len(tracers)) + ' shards, ' if fleet else ''}"
        f"{op_count} ops)",
        "  Eq. (4)  $MM = Ps*($M + $Fl) + N*$P/ROPS",
        "  Eq. (5)  $SS = Ps*$Fl + N*($I/IOPS + R*$P/ROPS)",
        f"  prices (CostCatalog): $P={catalog.processor_dollars:.2f} "
        f"({cores} cores), $I={catalog.ssd_io_dollars:.2f} @ "
        f"{catalog.iops:,.0f} IOPS, $M={catalog.dram_per_byte:.2e}/B, "
        f"$Fl={catalog.flash_per_byte:.2e}/B",
        "  execution term ($P/ROPS):  exec$/op = $P*core_s/(cores*ops)",
        "  I/O term ($I/IOPS):        io$/op   = $I*ios/(IOPS*ops)",
        "",
        f"  {'component':<14s} {'core us/op':>11s} {'exec $/op':>12s} "
        f"{'ios/op':>8s} {'io $/op':>12s}",
    ]
    components = sorted(set(cpu_by_component) | set(ios_by_component))
    total_us = 0.0
    total_ios = 0
    for component in components:
        us = cpu_by_component.get(component, 0.0)
        ios = ios_by_component.get(component, 0)
        total_us += us
        total_ios += ios
        lines.append(row(component, us, ios))
    lines.append(row("TOTAL", total_us, total_ios))
    lines.append("")
    lines.append("  DRAM rent (the Ps*$M storage term), resident bytes "
                 "by tag:")
    lines.append(f"  {'tag':<18s} {'bytes':>12s} {'$M capital':>12s}")
    for tag in sorted(dram_by_tag):
        nbytes = dram_by_tag[tag]
        lines.append(
            f"  {tag:<18s} {nbytes:>12,d} "
            f"{nbytes * catalog.dram_per_byte:>12.3e}"
        )
    target = fleet_totals(stats)
    lines.append("")
    lines.append(
        f"  reconciles with stats(): core_seconds="
        f"{target['core_seconds']:.6f}, ssd_ios={target['ssd_ios']:.0f} "
        f"(exact; see verify_reconciliation)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _smoke() -> int:
    """Tiny CI run: bare engine + 2-shard fleet, full reconciliation."""
    for shards, batch in ((0, 0), (0, 16), (2, 16)):
        tracers, stats, metrics = run_traced(Scenario(
            seed=7, mix="a", record_count=64, op_count=200,
            shards=shards, batch_size=batch))
        verify_reconciliation(tracers, stats)
        # Accounting starts the window at zero, so its counters are the
        # run's totals exactly.
        window = metrics["stats"]
        assert window["core_seconds"] == fleet_totals(stats)["core_seconds"], (
            "the stats window does not cover the traced run"
        )
        # The export must be reproducible within one process too.
        config = {"shards": shards, "batch": batch}
        if export_json(tracers, config) != export_json(tracers, config):
            raise AssertionError("non-deterministic trace export")
    print("trace smoke: OK (reconciliation exact, export deterministic)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=("Replay a seeded workload with cost-attribution "
                     "tracing; see module docstring for formats."),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mix", choices=sorted(MIX_BUILDERS),
                        default="a")
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--ops", type=int, default=1200)
    parser.add_argument("--shards", type=int, default=1,
                        help="1 = one bare engine (default); N > 1 = an "
                             "N-shard fleet behind the router")
    parser.add_argument("--batch-size", type=int, default=0,
                        help="0 = per-op replay (default); >1 groups ops "
                             "into apply_batch calls")
    parser.add_argument("--format",
                        choices=("json", "report"),
                        default="json")
    parser.add_argument("--max-roots", type=int, default=2000,
                        help="cap exported root spans (totals always "
                             "cover the full run)")
    parser.add_argument("--out", default="-",
                        help="output path ('-' = stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-verifying CI run")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    if args.shards < 1:
        parser.error("--shards must be >= 1")

    try:
        scenario = Scenario(
            seed=args.seed, mix=args.mix, record_count=args.records,
            op_count=args.ops, shards=args.shards if args.shards > 1 else 0,
            batch_size=args.batch_size)
    except ValueError as exc:
        parser.error(str(exc))
    tracers, stats, metrics = run_traced(scenario)
    reconciliation = verify_reconciliation(tracers, stats)

    config = {
        "seed": args.seed, "mix": f"ycsb-{args.mix}",
        "records": args.records, "ops": args.ops,
        "shards": args.shards, "batch_size": args.batch_size,
        "reconciliation": reconciliation,
        "metrics_delta": metrics,
    }
    if args.format == "json":
        output = export_json(tracers, config, max_roots=args.max_roots)
    else:
        output = cost_report(tracers, stats, args.ops) + "\n"

    if args.out == "-":
        sys.stdout.write(output)
    else:
        Path(args.out).write_text(output)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
