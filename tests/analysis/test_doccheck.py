"""doc-check: backticked ``repro.*`` references resolve against source.

The architecture doc is the contract: `python -m repro doc-check` (and
the CI docs job) fail when a cited symbol disappears.  These tests pin
the checker's resolution rules on synthetic docs and keep the real
docs/ARCHITECTURE.md green from inside the test suite too.
"""

from __future__ import annotations

import ast
import gc
import os
import warnings
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis import doccheck
from repro.analysis.doccheck import DocChecker, extract_symbols

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def checker() -> DocChecker:
    """One index of ``src/`` for the module: every test only reads it."""
    return DocChecker(PACKAGE_ROOT)


def test_architecture_doc_has_no_stale_symbols(checker):
    doc = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert checker.check_doc(str(doc))[1] == []


def test_extract_symbols_only_matches_backticked_repro_refs():
    text = (
        "see `repro.hardware.machine.Machine.summary` and\n"
        "`other.package.thing`, plus bare repro.core.mixture text\n"
        "and `repro.workloads.ycsb.WorkloadSpec`.\n"
    )
    symbols = extract_symbols(text)
    assert (1, "repro.hardware.machine.Machine.summary") in symbols
    assert (3, "repro.workloads.ycsb.WorkloadSpec") in symbols
    assert all(symbol.startswith("repro.") for __, symbol in symbols)
    assert len(symbols) == 2  # unbackticked / foreign refs ignored


def test_module_class_member_and_instance_attrs_resolve(checker):
    assert checker.resolve("repro.observability") is None
    assert checker.resolve("repro.observability.spans.Tracer") is None
    # Methods, properties and self.<attr> instance attributes all count.
    assert checker.resolve(
        "repro.observability.spans.Tracer.cpu_us_by_component") is None
    assert checker.resolve(
        "repro.hardware.machine.Machine.tracer") is None
    assert checker.resolve(
        "repro.observability.spans.SPAN_NAMES") is None


def test_unknown_member_is_reported(checker, tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("`repro.hardware.machine.Machine.frobnicate`\n")
    count, errors = checker.check_doc(str(doc))
    assert count == 1
    assert len(errors) == 1
    assert "frobnicate" in errors[0]


def test_unknown_module_is_reported(checker):
    reason = checker.resolve("repro.nonexistent.Widget")
    assert reason is not None


def test_doc_without_any_symbols_is_an_error(checker, tmp_path):
    doc = tmp_path / "empty.md"
    doc.write_text("prose with no symbol citations\n")
    count, errors = checker.check_doc(str(doc))
    assert count == 0
    assert errors
    assert "no `repro.*` symbol references" in errors[0]


def test_analysis_doc_has_no_stale_symbols(checker):
    doc = REPO_ROOT / "docs" / "ANALYSIS.md"
    assert checker.check_doc(str(doc))[1] == []


def test_analysis_doc_is_in_the_default_doc_set():
    # The doc-check CLI must cover docs/ANALYSIS.md without arguments,
    # or the rule catalog rots the way ARCHITECTURE.md used to.
    import argparse

    recorded = {}
    original = argparse.ArgumentParser.parse_args

    def spy(self, argv=None):
        namespace = original(self, argv)
        recorded["docs"] = namespace.docs
        return namespace

    argparse.ArgumentParser.parse_args = spy
    try:
        doccheck.main(["--package-root", PACKAGE_ROOT])
    finally:
        argparse.ArgumentParser.parse_args = original
    assert "docs/ANALYSIS.md" in recorded["docs"]


def test_doc_check_closes_every_doc_it_reads(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert doccheck.main([]) == 0
        gc.collect()
    assert [str(warning.message) for warning in caught
            if issubclass(warning.category, ResourceWarning)] == []


def test_doc_check_walks_each_cited_class_body_once(monkeypatch):
    # A fresh checker, so no class's members are known yet; every
    # method node ``class_members`` walks is walked once however many
    # doc symbols name a member of its class.
    fresh = DocChecker(PACKAGE_ROOT)
    walks: Counter = Counter()
    real_walk = ast.walk

    def counting_walk(node):
        walks[id(node)] += 1
        return real_walk(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    for doc in ("ARCHITECTURE.md", "ANALYSIS.md", "PROFILING.md"):
        assert fresh.check_doc(str(REPO_ROOT / "docs" / doc))[1] == []
    walked = {
        name for names in fresh.modules.values()
        for name, cls in names.classes.items()
        if any(id(item) in walks for item in cls.body)}
    assert len(walked) > 20
    assert set(walks.values()) == {1}
