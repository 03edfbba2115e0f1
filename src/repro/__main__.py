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
from typing import Dict, Tuple

from .bench import EXPERIMENTS, check_shapes, render
from .bench.reporting import format_scorecard

FAST = ("f2", "f8", "t2", "a4", "a6", "a7", "a8", "tiers")

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
        "domain static checks (epoch discipline, fault-site coverage)",
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
}


def _overview_epilog() -> str:
    """The subcommand/experiment listing shown by --help and no-args."""
    lines = ["subcommands (each takes --help):"]
    for name, (__, description) in SUBCOMMANDS.items():
        lines.append(f"  {name:<13s} {description}")
    lines.append("")
    lines.append("experiments (run by id):")
    for key, experiment in EXPERIMENTS.items():
        lines.append(f"  {key:<13s} {experiment.title}")
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
            for key, experiment in EXPERIMENTS.items():
                print(f"  {key:5s} {experiment.title}")
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
        experiment = EXPERIMENTS[key]
        print("=" * 72)
        print(f"[{key}] {experiment.title}")
        print("=" * 72)
        with WallTimer() as timer:
            values = experiment.measure()
        print(render(experiment, values))
        results = check_shapes(experiment, values)
        failed = sum(row["status"] == "fail" for row in results)
        print(f"\n{format_scorecard(results)}")
        print(f"claims: {len(results) - failed}/{len(results)} pass "
              f"({timer.elapsed:.1f}s)\n")
        failures += failed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
