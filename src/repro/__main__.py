"""Command-line experiment runner: ``python -m repro <experiment ...>``.

Runs any of the paper's experiments by id (see DESIGN.md Section 4) and
prints the rendered rows/series.  ``python -m repro all`` runs everything;
``python -m repro list`` shows the experiments; running with no
arguments (or ``--help``) prints the full subcommand overview.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, Dict, Tuple

from .bench import (
    ablation_a1,
    ablation_a2,
    ablation_a3,
    ablation_a4,
    ablation_a5,
    ablation_a6,
    ablation_a7,
    ablation_a8,
    ablation_a9,
    ablation_a10,
    figure1,
    figure2,
    figure3,
    figure7,
    figure8,
    table1,
    table2,
    table3,
    table4,
)

EXPERIMENTS: Dict[str, Tuple[str, Callable]] = {
    "f1": ("Figure 1: mixed MM/SS workload performance", figure1),
    "f2": ("Figure 2: MM vs SS cost, the 45-second rule", figure2),
    "f3": ("Figure 3: Bw-tree vs MassTree crossover", figure3),
    "f7": ("Figure 7: kernel vs user-level I/O paths", figure7),
    "f8": ("Figure 8: compression (CSS) regimes", figure8),
    "t1": ("Table 1: hardware cost catalog", table1),
    "t2": ("Table 2: breakeven derivations", table2),
    "t3": ("Table 3: main-memory comparison numbers", table3),
    "t4": ("Table 4: R derivation via Eq (3)", table4),
    "a1": ("Ablation 1: log-structured write traffic", ablation_a1),
    "a2": ("Ablation 2: blind updates avoid read I/O", ablation_a2),
    "a3": ("Ablation 3: TC record caching", ablation_a3),
    "a4": ("Ablation 4: falling IOPS prices", ablation_a4),
    "a5": ("Ablation 5: GC policy trade-off", ablation_a5),
    "a6": ("Ablation 6: NVRAM as extended memory", ablation_a6),
    "a7": ("Ablation 7: 'disk is tape' HDD arithmetic", ablation_a7),
    "a8": ("Ablation 8: compressed main memory", ablation_a8),
    "a9": ("Ablation 9: the LSM follows Equation (2)", ablation_a9),
    "a10": ("Ablation 10: adaptive eviction, moving hot set",
            ablation_a10),
}

FAST = ("f2", "f8", "t2", "a4", "a6", "a7", "a8")

#: Every subcommand, its implementing module (whose ``main(argv)`` it
#: dispatches to, imported lazily) and a one-line description.  The
#: ``--help`` / no-args overview enumerates exactly this table, and a
#: CLI test pins that every entry appears there.
SUBCOMMANDS: Dict[str, Tuple[str, str]] = {
    "bench-engine": (
        "repro.bench.engine_bench",
        "engine throughput benchmark; writes BENCH_engine.json",
    ),
    "lint": (
        "repro.analysis.cli",
        "domain static-analysis checks (cost accounting, determinism, ...)",
    ),
    "crash-matrix": (
        "repro.faults.matrix",
        "deterministic fault-injection recovery matrix",
    ),
    "trace": (
        "repro.observability.trace_cli",
        "seeded replay with bit-exact cost-attribution tracing",
    ),
    "whatif": (
        "repro.observability.whatif",
        "virtual causal profiler: predicted + validated component speedups",
    ),
    "doc-check": (
        "repro.analysis.doccheck",
        "verify backticked repro.* symbols in the docs resolve",
    ),
    "tiers": (
        "repro.bench.tier_sweep",
        "N-tier storage-hierarchy breakeven surface sweep",
    ),
}


def _overview_epilog() -> str:
    """The subcommand/experiment listing shown by --help and no-args."""
    lines = ["subcommands (each takes --help):"]
    for name, (__, description) in SUBCOMMANDS.items():
        lines.append(f"  {name:<13s} {description}")
    lines.append("")
    lines.append("experiments (run by id):")
    for key, (description, __) in EXPERIMENTS.items():
        lines.append(f"  {key:<13s} {description}")
    lines.append("")
    lines.append("  fast          the quick analytic subset "
                 f"({' '.join(FAST)})")
    lines.append("  all           every experiment")
    lines.append("  list          print the experiment table and exit")
    return "\n".join(lines)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module_name, __ = SUBCOMMANDS[argv[0]]
        module = importlib.import_module(module_name)
        return int(module.main(list(argv[1:])))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate experiments from Lomet, 'Cost/Performance in "
            "Modern Data Stores' (DaMoN'18/ICDE'19)."
        ),
        epilog=_overview_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids, 'fast', 'all', 'list', or a subcommand "
             "(see below)",
    )
    args = parser.parse_args(argv)
    if not args.experiments:
        # No arguments: show the full overview rather than silently
        # running anything — the subcommands are the discoverable
        # surface.
        parser.print_help()
        return 0

    requested = []
    for name in args.experiments:
        lowered = name.lower()
        if lowered == "list":
            for key, (description, __) in EXPERIMENTS.items():
                print(f"  {key:4s} {description}")
            return 0
        if lowered == "all":
            requested.extend(EXPERIMENTS)
        elif lowered == "fast":
            requested.extend(FAST)
        elif lowered in EXPERIMENTS:
            requested.append(lowered)
        else:
            parser.error(
                f"unknown experiment {name!r}; try 'list' (subcommands "
                f"must come first: {' '.join(SUBCOMMANDS)})"
            )

    from .bench.wallclock import WallTimer

    failures = 0
    for key in dict.fromkeys(requested):   # dedupe, keep order
        description, runner = EXPERIMENTS[key]
        print("=" * 72)
        print(f"[{key}] {description}")
        print("=" * 72)
        with WallTimer() as timer:
            result = runner()
        print(result.render())
        ok = result.shape_ok()
        print(f"\nshape check: {'OK' if ok else 'FAILED'} "
              f"({timer.elapsed:.1f}s)\n")
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
