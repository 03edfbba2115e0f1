"""One loader under every static check: each file is parsed once.

The lint, doc-check, the code and state censuses, the private-access
pin and the span-name census all read source through
:func:`repro.analysis.runner.load_sources`, which keeps one parsed
:class:`~repro.analysis.core.SourceFile` per ``(path, text)`` for the
process.  These tests hold that: however many checks run, no file is
parsed twice, and no check changes a tree the others share.
"""

from __future__ import annotations

import ast
import collections
import os
from pathlib import Path

import repro
from benchmarks.census import source_defs
from repro.analysis import cli, doccheck
from repro.analysis.runner import collect_python_files, load_sources

from .. import test_private_access as private_access
from .. import test_state_census as state_census
from ..observability import test_spans as spans

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_every_check() -> None:
    """The lint and doc-check CLIs, then each census over the tree."""
    assert cli.main([]) == 0
    assert doccheck.main([]) == 0
    found, setters = state_census.source_stores()
    strings, attributes = state_census.reader_reads()
    assert state_census.unread(found, setters, strings, attributes) == []
    state_census.test_every_counter_a_test_reads_is_written((found, setters))
    assert source_defs()
    private_access.test_cross_object_private_access_does_not_grow()
    spans.TestSpanNames().test_every_known_name_is_opened_somewhere_in_src()


def test_every_check_together_parses_each_file_at_most_once(
        monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    parsed = collections.Counter()
    parse = ast.parse

    def counting(source, filename="<unknown>", mode="exec", **kwargs):
        if mode == "exec":
            parsed[str(filename)] += 1
        return parse(source, filename, mode, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    run_every_check()
    assert [name for name, count in parsed.items() if count > 1] == []


def test_no_check_mutates_a_shared_tree(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    sources = load_sources(collect_python_files([PACKAGE_DIR]))
    before = [ast.dump(source.tree) for source in sources]
    assert cli.main([]) == 0
    assert doccheck.main([]) == 0
    again = load_sources(collect_python_files([PACKAGE_DIR]))
    assert all(first is second for first, second in zip(sources, again))
    assert [ast.dump(source.tree) for source in again] == before


def test_a_changed_text_is_parsed_afresh(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("x = 1\n")
    first, = load_sources([str(module)])
    assert load_sources([str(module)]) == [first]
    module.write_text("y = 2\n")
    second, = load_sources([str(module)])
    assert second is not first
    assert [node.targets[0].id for node in second.tree.body] == ["y"]
