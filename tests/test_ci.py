"""CI is a tested artifact.

``.github/workflows/ci.yml`` must load with ``yaml.safe_load`` (it did
not for 24 commits once, and nothing noticed), and every gate the repo's
rules rely on must be a ``run:`` step in it.  A gate's lines must appear
whole, in order, in one step that may not fail quietly, so an appended
``|| true`` or a ``continue-on-error`` does not count.  Removing a gate
needs an edit here.
"""

import pathlib

import pytest
import yaml

from benchmarks.census import COMMANDS

WORKFLOW = (pathlib.Path(__file__).resolve().parent.parent
            / ".github" / "workflows" / "ci.yml")

#: Gate name -> the lines one step runs, in order (``PYTHONPATH=src``
#: may lead a line).
GATES = {
    "tier-1": ["python -m pytest -x -q --durations=15"],
    "BENCH_engine.json regenerates byte for byte": [
        "python -m repro bench-engine --trace --out regenerated.json",
        "cmp regenerated.json BENCH_engine.json"],
    # The results files include golden.txt, the digest of every
    # deterministic CLI output, so this step also checks those outputs.
    "results files regenerate byte for byte": [
        "python -m pytest benchmarks --ignore=benchmarks/e2e -q "
        "--benchmark-disable",
        "git diff --exit-code benchmarks/results"],
    "full crash matrix": ["python -m repro crash-matrix --seed 0 --ops 2000"],
    "full crash matrix at seeds 4 and 7": [
        "python -m repro crash-matrix --seed 4 --ops 2000",
        "python -m repro crash-matrix --seed 7 --ops 2000"],
    "e2e smoke": ["python benchmarks/e2e/run.py --smoke"],
    "doc-check": ["python -m repro doc-check"],
    "lint": ["python -m repro lint"],
    "census": ["python benchmarks/census.py",
               "git diff --exit-code benchmarks/results/census.txt"],
}


def load_jobs():
    return yaml.safe_load(WORKFLOW.read_text())["jobs"]


def run_lines(step):
    """The command lines of a step, without a leading ``PYTHONPATH=src``."""
    return [line.strip().removeprefix("PYTHONPATH=src ")
            for line in step.get("run", "").splitlines() if line.strip()]


def gating_steps(jobs):
    """Every step whose failure fails the run."""
    return [step for job in jobs.values() for step in job["steps"]
            if "run" in step and not step.get("continue-on-error")]


def runs_in_order(lines, wanted):
    rest = iter(lines)
    return all(any(line == target for line in rest) for target in wanted)


def test_the_workflow_loads():
    jobs = load_jobs()
    assert {"lint", "tests", "docs-and-trace", "crash-matrix",
            "census"} <= set(jobs)


@pytest.mark.parametrize("gate", GATES)
def test_every_gate_is_a_run_step(gate):
    steps = gating_steps(load_jobs())
    assert any(runs_in_order(run_lines(step), GATES[gate])
               for step in steps), gate


def test_the_census_runs_on_a_python_with_co_qualname():
    job = load_jobs()["census"]
    versions = [step["with"]["python-version"] for step in job["steps"]
                if "setup-python" in step.get("uses", "")]
    assert versions == ["3.12"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_census_command_is_a_ci_command(command):
    lines = [line for job in load_jobs().values() for step in job["steps"]
             for line in run_lines(step)]
    assert any(command in line for line in lines), command
