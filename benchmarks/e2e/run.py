#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the Deuteronomy engine simulator.

Three ways in, all from the repository root:

``python benchmarks/e2e/run.py [--seed 42] [--reps 3] [--smoke]``
    The whole suite: every workload ``--reps`` times untraced (each in a
    fresh subprocess, one after the other) plus one traced run, every
    metric printed by name with its unit, ``out/result.json`` written.
    Exits non-zero if any op failed or any virtual-clock number differs
    between repetitions.

``python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the form ``BENCHMARK.json`` names.  The last line of
    standard output is one JSON object: the end-to-end metrics with
    ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python benchmarks/e2e/run.py --compare A.json B.json``
    Verdict per metric between two ``result.json`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent.parent / "src"
OUT_DIR = HERE / "out"

#: Set-ups per ``--workload`` invocation; ``setup_s`` is their median.
SETUPS_PER_RUN = 3
#: One worker may not outlive this (the contract allows 180 s per run).
WORKER_TIMEOUT_S = 170


def _import_program() -> None:
    """Put the program under test on ``sys.path``; exit 2 if it is absent."""
    if not (SOURCE_ROOT / "repro" / "__init__.py").is_file():
        print(f"error: {SOURCE_ROOT / 'repro'} not found: this benchmark "
              "runs the program in the checkout around it", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(SOURCE_ROOT), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# worker side: one run in this process
# ----------------------------------------------------------------------

def _worker_main(args: argparse.Namespace) -> int:
    import harness
    from scenarios import BY_NAME

    scenario = BY_NAME[args.worker].sized(args.seconds, args.smoke)
    if args.setup_only:
        record = harness.run_setup_only(scenario, args.seed)
    else:
        spans_path = None
        if args.traced:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"{scenario.name}.spans.jsonl"
        record = harness.run_workload(scenario, args.seed,
                                      traced=args.traced,
                                      spans_path=spans_path)
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# parent side: fresh subprocess per run
# ----------------------------------------------------------------------

def _spawn(workload: str, seed: int, seconds: float, smoke: bool,
           traced: bool = False, setup_only: bool = False) -> dict:
    """Run one worker to completion; returns its record."""
    command = [sys.executable, str(HERE / "run.py"), "--worker", workload,
               "--seed", str(seed), "--seconds", repr(seconds)]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    # A fixed hash seed gives every worker the same dict and set layout,
    # which takes one source of run-to-run variation out of the host
    # numbers.  run() kills and reaps the child on timeout or interrupt.
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"},
                          timeout=WORKER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(
            f"error: worker {' '.join(command[2:])} exited "
            f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _mismatches(records: Sequence[dict]) -> List[str]:
    """Virtual-clock metrics and counts that differ from the first run's."""
    reference = records[0]["repeatable"]
    different = []
    for record in records[1:]:
        for name, value in record["repeatable"].items():
            if value != reference[name]:
                different.append(
                    f"{record['workload']}: {name} = {value!r} "
                    f"{'traced' if record['traced'] else 'untraced'}, "
                    f"{reference[name]!r} on the first run")
    return different


def _traced_layers(traced: dict, untraced_steady_wall_s: float) -> dict:
    """The traced run's per-layer metrics plus what only the pair of runs
    can say: how much slower tracing made the measured phase."""
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = (
        traced["steady_wall_s"] / untraced_steady_wall_s)
    return layers


def _problems(records: Sequence[dict]) -> List[str]:
    """Reasons this set of runs of one workload must not be trusted."""
    problems = _mismatches(records)
    for record in records:
        problems.extend(record["violations"])
        if record["ops_failed"]:
            problems.append(
                f"{record['workload']}: {record['ops_failed']} of "
                f"{record['ops_attempted']} ops failed")
    return problems


# ----------------------------------------------------------------------
# --workload: the BENCHMARK.json form
# ----------------------------------------------------------------------

def _driver_main(args: argparse.Namespace) -> int:
    from metrics import END_TO_END, PER_LAYER, with_units
    import report

    untraced = _spawn(args.workload, args.seed, args.seconds, args.smoke)
    records = [untraced]
    if args.trace:
        traced = _spawn(args.workload, args.seed, args.seconds, args.smoke,
                        traced=True)
        records.append(traced)
        layers = _traced_layers(traced, untraced["steady_wall_s"])
        values = {row.name: layers[row.name] for row in PER_LAYER}
        print(report.layer_table(args.workload, layers,
                                 traced["functions"],
                                 traced["measured_wall_s"]))
    else:
        setups = [untraced["end_to_end"]["setup_s"]] + [
            _spawn(args.workload, args.seed, args.seconds, args.smoke,
                   setup_only=True)["setup_s"]
            for __ in range(SETUPS_PER_RUN - 1)
        ]
        values = {row.name: untraced["end_to_end"][row.name]
                  for row in END_TO_END}
        values["setup_s"] = statistics.median(setups)
        print(report.end_to_end_table(args.workload, untraced, values))
    problems = _problems(records)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": untraced["ops_attempted"],
        "failed": untraced["ops_failed"],
        "metrics": with_units(values),
    }))
    return 0


# ----------------------------------------------------------------------
# the whole suite
# ----------------------------------------------------------------------

def _suite_main(args: argparse.Namespace) -> int:
    from metrics import END_TO_END
    from scenarios import SCENARIOS
    import report

    result: Dict[str, object] = {
        "seed": args.seed, "reps": args.reps, "smoke": args.smoke,
        "seconds": args.seconds, "workloads": {},
    }
    problems: List[str] = []
    for scenario in SCENARIOS:
        reps = [_spawn(scenario.name, args.seed, args.seconds, args.smoke)
                for __ in range(args.reps)]
        traced = _spawn(scenario.name, args.seed, args.seconds, args.smoke,
                        traced=True)
        problems.extend(_problems([*reps, traced]))
        # Virtual-clock values are identical across reps (checked above),
        # so the median is that value; host-clock values get a real one.
        end_to_end = {
            row.name: statistics.median(
                rep["end_to_end"][row.name] for rep in reps)
            for row in END_TO_END
        }
        untraced_wall = statistics.median(
            rep["measured_wall_s"] for rep in reps)
        layers = _traced_layers(traced, statistics.median(
            rep["steady_wall_s"] for rep in reps))
        print(report.end_to_end_table(scenario.name, reps[0], end_to_end))
        print(report.layer_table(scenario.name, layers, traced["functions"],
                                 traced["measured_wall_s"]))
        result["workloads"][scenario.name] = {
            "sizes": reps[0]["sizes"],
            "ops_attempted": reps[0]["ops_attempted"],
            "ops_failed": max(rep["ops_failed"] for rep in [*reps, traced]),
            "latency_samples": reps[0]["latency_samples"],
            "measured_wall_s": untraced_wall,
            "end_to_end": end_to_end,
            "end_to_end_reps": {
                row.name: [rep["end_to_end"][row.name] for rep in reps]
                for row in END_TO_END
            },
            "layers": layers,
            "functions": traced["functions"],
        }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "result.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


# ----------------------------------------------------------------------

def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=42,
                        help="the only source of randomness (default 42)")
    parser.add_argument("--reps", type=int,
                        help="untraced repetitions per workload in the "
                             "suite (default 3; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="every code path at a tenth of the size")
    parser.add_argument("--seconds", type=float,
                        help="measured work per run, in seconds on the "
                             "reference host (default: the size the "
                             "workloads were calibrated at)")
    parser.add_argument("--workload", help="run one workload and print the "
                                           "contract's JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result.json files")
    # Internal: what the parent passes to its worker subprocesses.
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.smoke else 3
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare
        return compare.main(*args.compare)
    _import_program()
    from scenarios import BY_NAME, REFERENCE_SECONDS
    if args.seconds is None:
        args.seconds = REFERENCE_SECONDS
    for name in (args.worker, args.workload):
        if name is not None and name not in BY_NAME:
            print(f"error: unknown workload {name!r}; expected one of "
                  f"{sorted(BY_NAME)}", file=sys.stderr)
            return 2
    if args.worker:
        return _worker_main(args)
    if args.workload:
        return _driver_main(args)
    return _suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
