"""CLI behaviour and the self-run gate: the repo must lint clean."""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.analysis.cli import main as lint_main
from repro.analysis.core import rule_ids

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

DIRTY = """\
class Store:
    def __init__(self, ssd):
        self.ssd = ssd

    def flush(self, nbytes):
        self.ssd.write(nbytes)
"""


def test_repo_is_lint_clean(capsys):
    """The acceptance gate: ``python -m repro lint`` exits 0 here."""
    assert lint_main([]) == 0
    assert capsys.readouterr().out == ""


def test_default_paths_cover_the_package(monkeypatch):
    """No arguments means the package: with ``test_repo_is_lint_clean``
    (which lints the defaults for real) this is "the package is clean"
    without parsing ``src/`` a second time."""
    linted = []

    def record(paths, select=None):
        linted.append(list(paths))
        return []

    monkeypatch.setattr("repro.analysis.cli.lint_paths", record)
    assert lint_main([]) == 0
    assert lint_main([PACKAGE_DIR]) == 0
    assert linted == [[PACKAGE_DIR], [PACKAGE_DIR]]


def test_findings_exit_nonzero_with_location(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    assert lint_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{target}:6:" in out
    assert "[fault-site-coverage]" in out
    assert "1 finding" in out


def test_json_format(tmp_path, capsys):
    (tmp_path / "dirty.py").write_text(DIRTY)
    assert lint_main(["--format", "json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["rule"] == "fault-site-coverage"
    assert payload[0]["line"] == 6


def test_select_restricts_rules(tmp_path, capsys):
    (tmp_path / "dirty.py").write_text(DIRTY)
    assert lint_main(
        ["--select", "epoch-discipline", str(tmp_path)]
    ) == 0


def test_select_unknown_rule_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["--select", "no-such-rule", str(tmp_path)])
    assert excinfo.value.code == 2


def test_missing_path_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(tmp_path / "nope")])
    assert excinfo.value.code == 2


def test_module_entrypoint_dispatches(tmp_path, capsys):
    from repro.__main__ import main as repro_main

    (tmp_path / "dirty.py").write_text(DIRTY)
    assert repro_main(["lint", str(tmp_path)]) == 1
    assert "[fault-site-coverage]" in capsys.readouterr().out


def test_registered_rule_ids_are_stable():
    assert set(rule_ids()) == {"epoch-discipline", "fault-site-coverage"}


def test_empty_select_is_an_error(tmp_path):
    """``--select ""`` / ``--select ,`` used to silently run zero rules
    and exit 0; it must be a usage error naming the valid ids."""
    (tmp_path / "dirty.py").write_text(DIRTY)
    for empty in ("", ","):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--select", empty, str(tmp_path)])
        assert excinfo.value.code == 2
