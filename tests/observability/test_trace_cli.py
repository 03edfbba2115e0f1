"""``python -m repro trace``: determinism, formats, the dollar report."""

from __future__ import annotations

import json

import pytest

from repro.observability import trace_cli

BASE = ["--seed", "5", "--records", "64", "--ops", "150"]


def _run(tmp_path, name, extra):
    out = tmp_path / name
    assert trace_cli.main(BASE + extra + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_json_export_is_byte_identical_across_runs(tmp_path):
    first = _run(tmp_path, "a.json", ["--format", "json"])
    second = _run(tmp_path, "b.json", ["--format", "json"])
    assert first == second

    doc = json.loads(first)
    assert doc["kind"] == "repro-trace"
    assert doc["schema"] == 1
    assert doc["config"]["seed"] == 5
    reconciliation = doc["config"]["reconciliation"]
    assert reconciliation["core_seconds_exact"] is True
    assert reconciliation["ssd_ios_exact"] is True
    assert doc["config"]["metrics_delta"]["counters"]
    shard = doc["shards"][0]
    assert shard["detailed"] is True
    assert 0 < shard["roots_exported"] <= shard["roots_total"]
    assert shard["spans"][0]["name"].startswith("engine.")


def test_report_cites_the_paper_equations(tmp_path):
    text = _run(tmp_path, "report.txt", ["--format", "report"]).decode()
    assert "$ per op by component" in text
    assert "Eq. (4)  $MM = Ps*($M + $Fl) + N*$P/ROPS" in text
    assert "Eq. (5)  $SS = Ps*$Fl + N*($I/IOPS + R*$P/ROPS)" in text
    assert "execution term ($P/ROPS)" in text
    assert "I/O term ($I/IOPS)" in text
    assert "DRAM rent (the Ps*$M storage term)" in text
    assert "reconciles with stats()" in text
    assert "bwtree" in text


def test_fleet_report_labels_the_shard_count(tmp_path):
    text = _run(
        tmp_path, "fleet.txt",
        ["--shards", "2", "--batch-size", "16", "--format", "report"],
    ).decode()
    assert "fleet of 2 shards" in text


def test_max_roots_caps_export_but_not_totals(tmp_path):
    capped = json.loads(_run(
        tmp_path, "capped.json", ["--format", "json", "--max-roots", "3"]))
    shard = capped["shards"][0]
    assert shard["roots_exported"] == 3
    assert shard["roots_total"] > 3
    assert shard["total_us"] > 0.0


def test_smoke_mode_self_verifies(capsys):
    assert trace_cli.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    assert "trace smoke: OK" in out


def test_invalid_shard_count_is_a_usage_error():
    with pytest.raises(SystemExit):
        trace_cli.main(["--shards", "0"])
