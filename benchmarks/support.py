"""Shared helpers for the benchmark suite.

``test_experiments.py`` regenerates each of the paper's figures/tables
(see DESIGN.md Section 4), checks the paper's claims about it, and writes
the rendered rows/series — the same ones the paper reports — to
``benchmarks/results/<slug>.txt`` so they survive pytest's output capture.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(experiment_id: str, rendered: str) -> pathlib.Path:
    """Persist one experiment's rendered output; returns the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    path.write_text(rendered + "\n")
    return path


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
