"""The ``python -m repro`` experiment runner."""

from dataclasses import replace

import pytest

from repro.__main__ import FAST, SUBCOMMANDS, main
from repro.bench import EXPERIMENTS


def test_list_prints_every_experiment(capsys):
    """``list`` enumerates exactly the table's ids, in table order."""
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == list(EXPERIMENTS)
    assert set(FAST) <= set(EXPERIMENTS)


def test_no_args_enumerates_every_subcommand(capsys):
    """Bare ``python -m repro`` is the discoverability surface: every
    subcommand must appear with its one-line description."""
    assert main([]) == 0
    out = capsys.readouterr().out
    for name, (__, description) in SUBCOMMANDS.items():
        assert name in out
        assert description in out
    for key, experiment in EXPERIMENTS.items():
        assert f"  {key:<13s} {experiment.title}" in out
    assert "fast" in out and "all" in out and "list" in out


def test_help_enumerates_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name, (__, description) in SUBCOMMANDS.items():
        assert name in out
        assert description in out
    listed = out.split("experiments (run by id):")[1].split("\n\n")[0]
    assert [line.split()[0] for line in listed.strip().splitlines()] \
        == list(EXPERIMENTS)


def test_subcommand_table_modules_expose_main():
    """Every dispatch target must import and offer ``main(argv)``."""
    import importlib

    for name, (module_name, __) in SUBCOMMANDS.items():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, "main")), (name, module_name)


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_single_fast_experiment_runs(capsys):
    assert main(["t2"]) == 0
    out = capsys.readouterr().out
    assert "five-minute rule" in out
    assert "t2 · breakeven interval Ti (Eq. 6) · " in out
    assert "claims: 5/5 pass" in out


def test_failed_claim_is_named_and_exits_nonzero(capsys, monkeypatch):
    sweep_without_the_step = {"iops_values": [1, 2], "intervals": [2.0, 1.0],
                              "io_terms": [2.0, 1.0]}
    monkeypatch.setitem(EXPERIMENTS, "a4", replace(
        EXPERIMENTS["a4"], measure=lambda: sweep_without_the_step))
    assert main(["a4"]) == 1
    out = capsys.readouterr().out
    assert "a4 · the 300k -> 500k IOPS step" in out
    assert "measured: nan · fail" in out
    assert "claims: 1/2 pass" in out


def test_duplicates_deduped(capsys):
    assert main(["a4", "a4"]) == 0
    out = capsys.readouterr().out
    assert out.count("[a4]") == 1


def test_fast_alias_covers_analytic_subset(capsys):
    assert main(["fast"]) == 0
    out = capsys.readouterr().out
    for key in FAST:
        assert f"[{key}]" in out
