"""Collect sources, run rules, filter suppressions, render findings."""

from __future__ import annotations

import json
import os
from pathlib import PurePath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import Finding, LintConfig, SourceFile, all_rules


def collect_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.add(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames
                           if not d.startswith(".") and d != "__pycache__"]
            found.update(os.path.join(dirpath, filename)
                         for filename in filenames if filename.endswith(".py"))
    return sorted(found)


#: Every file loaded in this process, by path and text.
_LOADED: Dict[Tuple[str, str], SourceFile] = {}


def load_sources(paths: Iterable[str]) -> List[SourceFile]:
    """Read each file; parse it unless this process already parsed the
    same path with the same text, and then share that one."""
    sources: List[SourceFile] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            key = (path, handle.read())
        if key not in _LOADED:
            _LOADED[key] = SourceFile(*key)
        sources.append(_LOADED[key])
    return sources


def module_name(path: str, root: str) -> str:
    """``<root>/repro/bwtree/tree.py`` -> ``repro.bwtree.tree`` (a
    package's ``__init__.py`` names the package)."""
    parts = PurePath(os.path.relpath(path, root)).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run every (selected) rule over ``paths`` and return findings.

    Findings on lines carrying a matching ``# repro: ignore[rule-id]``
    comment are dropped here, so rules never need to know about
    suppression.
    """
    config = LintConfig(select=select)
    files = load_sources(collect_python_files(paths))
    by_path = {source.path: source for source in files}
    findings: List[Finding] = []
    for instance in all_rules():
        if select is not None and instance.rule_id not in select:
            continue
        for finding in instance.check(files, config):
            source = by_path.get(finding.path)
            if source is None \
                    or not source.is_suppressed(finding.line, finding.rule):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_findings(findings: Sequence[Finding],
                    fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            [finding.as_dict() for finding in findings], indent=2
        )
    if fmt == "sarif":
        return json.dumps(render_sarif(findings), indent=2)
    lines = [finding.render() for finding in findings]
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)


def render_sarif(findings: Sequence[Finding]) -> Dict[str, object]:
    """SARIF 2.1.0 log for the GitHub code-scanning upload action.

    Valid with zero findings (an empty ``results`` list): CI uploads the
    clean run too, so scanning alerts auto-close when a finding is
    fixed.
    """
    rules = [
        {
            "id": instance.rule_id,
            "shortDescription": {"text": instance.description},
        }
        for instance in all_rules()
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": os.path.relpath(finding.path),
                        },
                        "region": {
                            "startLine": finding.line,
                            # SARIF columns are 1-based; ast's are 0-based.
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
