"""The reproduction proper: every row of ``repro.bench.EXPERIMENTS``.

Each experiment runs once at its default (tracked) sizes, writes the
rendered rows/series to ``results/<slug>.txt`` and must leave none of the
paper's claims about it failing.  Once every row has run, the claim rows
are written to ``results/scorecard.txt``: one line per claim — id, claim,
the paper's value, the measured one, pass/fail.
"""

import pytest

from repro.bench import EXPERIMENTS, check_shapes, render
from repro.bench.reporting import format_scorecard

from .support import run_once, write_result


@pytest.fixture(scope="module")
def scorecard():
    rows = []
    yield rows
    # A partial run (-k, -x) must not truncate the tracked file.
    if {row["id"] for row in rows} == set(EXPERIMENTS):
        write_result("scorecard", format_scorecard(rows))


@pytest.mark.parametrize("experiment", EXPERIMENTS.values(),
                         ids=list(EXPERIMENTS))
def test_experiment(benchmark, scorecard, experiment):
    values = run_once(benchmark, experiment.measure)
    write_result(experiment.slug, render(experiment, values))
    results = check_shapes(experiment, values)
    scorecard.extend(results)
    assert [row for row in results if row["status"] == "fail"] == []
