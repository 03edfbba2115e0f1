"""repro.analysis: the static checks a seeded run cannot replace.

Every number this repository reports is checked at run time: spans
reconcile with the CPU model, charge streams are pinned by digest, the
crash matrix recovers every fault site, and the censuses hold each
counter, option and function to a consumer.  The lint keeps only the
rules that catch a defect none of those sees, by the mutant audit in
``benchmarks/mutants.py`` (``docs/ANALYSIS.md`` names each rule's
evidence).

Rules (ids usable in ``--select`` and ``# repro: ignore[...]``):

* ``epoch-discipline`` — latch-free dereferences (mapping table, delta
  chains, record heap) happen only under an epoch/latch charge, and
  ``epoch_enter``/``epoch_exit`` pair on every path;
* ``fault-site-coverage`` — durability mutations in the storage/TC
  layers are preceded by a registered :data:`repro.faults.FAULT_SITES`
  hit, so a crash injected at the site lands before the mutation.

The package also holds the one source loader every static check reads
through (:func:`~repro.analysis.runner.load_sources`) and ``python -m
repro doc-check`` (:mod:`repro.analysis.doccheck`).

Run ``python -m repro lint`` (or see :mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from .core import Finding, LintConfig, Rule, SourceFile, all_rules
from .runner import lint_paths, render_findings

__all__ = [
    "Finding",
    "LintConfig",
    "Rule",
    "SourceFile",
    "all_rules",
    "lint_paths",
    "render_findings",
]
