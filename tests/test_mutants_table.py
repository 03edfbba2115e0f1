"""The tracked mutant audit matches its harness, and every lint rule
and reference copy shows the evidence it keeps its place by.

``benchmarks/mutants.py`` writes ``benchmarks/results/mutants.txt``; no
mutant runs here, but each mutant's edit must still apply.  A rule of ``repro.analysis.all_rules()`` stays only
if some mutant is killed by it alone, and ``docs/ANALYSIS.md`` names
that mutant in the rule's row of its audit table.  A reference copy
stays only while the table lists a mutant that its tests alone kill.
"""

import pathlib
import re

from benchmarks.mutants import COPIES, MECHANISMS, MUTANTS, RESULTS_PATH, ROOT
from repro.analysis import all_rules

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "ANALYSIS.md"


def read_table():
    lines = RESULTS_PATH.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("mutant "))
    columns = lines[start].split()[1:]
    rows = {}
    for line in lines[start + 1:]:
        if not line.strip():
            break
        name, *cells = line.split()
        rows[name] = dict(zip(columns, cells))
    return columns, rows


def test_rows_and_columns_are_the_harness_tables():
    columns, rows = read_table()
    assert columns == list(MECHANISMS)
    assert list(rows) == ["unmutated", *(m.name for m in MUTANTS)]


def test_every_mutant_edits_exactly_one_place():
    """The audit refuses a row whose old text is missing or repeated; an
    edit to a mutated line fails here, not at the next audit."""
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, (
            f"{mutant.name}: its old text occurs {text.count(mutant.old)} "
            f"times in {mutant.path}")


def test_the_unmutated_tree_passes_every_mechanism():
    __, rows = read_table()
    assert set(rows["unmutated"].values()) == {"."}


def test_every_survivor_has_a_reason():
    __, rows = read_table()
    for mutant in MUTANTS:
        if set(rows[mutant.name].values()) == {"."}:
            assert mutant.survives, mutant.name


def test_every_rule_names_a_mutant_only_it_kills():
    __, rows = read_table()
    doc = DOC.read_text(encoding="utf-8").splitlines()
    for rule in all_rules():
        column = f"lint:{rule.rule_id}"
        row = next(line for line in doc
                   if line.startswith(f"| `{rule.rule_id}` |"))
        named = set(re.findall(r"`([a-z0-9-]+)`", row)) & set(rows)
        assert any(rows[name][column] != "."
                   and all(cell == "." for key, cell in rows[name].items()
                           if key != column)
                   for name in named), rule.rule_id


def test_every_copy_kills_a_mutant_nothing_else_kills():
    lines = RESULTS_PATH.read_text(encoding="utf-8").splitlines()
    start = lines.index("kills no other column makes, by copy:")
    listed = {}
    for line in lines[start + 1:]:
        if not line.strip():
            break
        copy, kills = line.strip().split(": ")
        listed[copy] = kills
    assert set(listed) == set(COPIES)
    assert all(kills != "none" for kills in listed.values()), listed
