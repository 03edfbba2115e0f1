"""The command line against the contract in BENCHMARK.json."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
from conftest import E2E_DIR, REPO_ROOT
from metrics import END_TO_END, PER_LAYER
from scenarios import SCENARIOS

MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(E2E_DIR.relative_to(REPO_ROOT) / "run.py"),
         *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


def test_manifest_repeats_the_benchmarks_own_definitions():
    assert sorted(MANIFEST) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["workloads"] == [
        {"name": s.name, "why": s.manifest_why()} for s in SCENARIOS]
    assert MANIFEST["end_to_end"] == [
        {"name": row.name, "unit": row.unit, "better": row.better,
         "bound": row.bound} for row in END_TO_END]
    assert MANIFEST["per_layer"] == [
        {"name": row.name, "unit": row.unit, "better": row.better}
        for row in PER_LAYER]


def test_manifest_stays_inside_the_contracts_limits():
    rows = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    names = [row["name"] for row in rows + MANIFEST["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(row["unit"]) for row in rows)
    assert all(row["better"] in ("higher", "lower") for row in rows)
    assert all(0 < row["bound"] <= 0.25 for row in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert len(MANIFEST["per_layer"]) <= 128
    setup = [row for row in MANIFEST["end_to_end"]
             if row["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(row["bound"]
                                   for row in MANIFEST["end_to_end"])}]
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60


@pytest.mark.parametrize("trace, rows", [("0", END_TO_END), ("1", PER_LAYER)])
def test_workload_form_prints_the_contracts_last_line(trace, rows):
    done = run_cli("--workload", "update_batched", "--seed", "5",
                   "--seconds", "5", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [row.name for row in rows]
    for row in rows:
        assert result["metrics"][row.name]["unit"] == row.unit
        assert isinstance(result["metrics"][row.name]["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("seed", ["42", "7"])
def test_smoke_suite_passes(seed):
    done = run_cli("--smoke", "--seed", seed)
    assert done.returncode == 0, done.stderr
    for scenario in SCENARIOS:
        assert f"== {scenario.name}: end to end" in done.stdout
        assert f"== {scenario.name}: per layer" in done.stdout
    for row in (*END_TO_END, *PER_LAYER):
        assert row.name.split(".", 1)[-1] in done.stdout
    result = json.loads((E2E_DIR / "out" / "result.json").read_text())
    assert result["seed"] == int(seed)
    read_hot = result["workloads"]["read_hot"]["layers"]
    assert read_hot["ssd.ios_per_op"] == 0
    assert read_hot["recovery_log.flushes"] == 0
    assert result["workloads"]["read_cold"]["layers"]["ssd.ios_per_op"] > 0
    fleet = result["workloads"]["fleet_async"]["layers"]
    assert fleet["router.host_calls"] > 0 and fleet["log_device.writes"] > 0
    assert all(run["ops_failed"] == 0
               for run in result["workloads"].values())

    same = run_cli("--compare", str(E2E_DIR / "out" / "result.json"),
                   str(E2E_DIR / "out" / "result.json"))
    assert same.returncode == 0, same.stderr
    assert "worse" not in same.stdout and "better" not in same.stdout
    assert same.stdout.count("nothing moved") == len(SCENARIOS)


def test_unknown_workload_is_refused():
    done = run_cli("--workload", "nope", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert done.returncode == 2
    assert "unknown workload" in done.stderr


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    done = run_cli("--workload", "read_hot", "--seed", "1", "--seconds", "5",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "not found" in done.stderr


def test_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict("lower", 0.10, 100, 105, steady, steady) == "same"
    assert compare.verdict("lower", 0.10, 100, 115, steady, steady) == "worse"
    assert compare.verdict("lower", 0.10, 100, 85, steady, steady) == "better"
    assert compare.verdict("higher", 0.10, 100, 85, steady, steady) == "worse"
    assert compare.verdict("higher", 0.10, 100, 115, steady,
                           steady) == "better"
    wide = [80.0, 100.0, 125.0]
    assert compare.verdict("lower", 0.10, 100, 115, steady,
                           wide) == "unresolved"
    exact = [7.5, 7.5, 7.5]
    assert compare.verdict("lower", 0.001, 7.5, 7.5, exact, exact) == "same"
    assert compare.verdict("lower", 0.001, 7.5, 7.6, exact, exact) == "worse"
