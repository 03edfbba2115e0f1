"""The code census: each ``src/repro`` function that no CI command enters
says why it stays.

``benchmarks/census.py`` (a CI job; minutes, so not here) writes
``benchmarks/results/census.txt``, one unreached ``def`` per line as
``module:qualname  kind  test``.  This checks the hand-written half: a
newly unreached function arrives without a kind and fails here until
someone writes one, and a kind names a test that reaches the function
(for ``abstract``, one that runs an implementation).
A function that is unreached for no reason is deleted, not listed.
"""

import ast
import pathlib
import re

from benchmarks.census import CENSUS_PATH, ROOT, read_census, source_defs

KIND = re.compile(r"error-path|abstract|test-support|pending: item \d+")


def test_every_unreached_function_has_a_kind_and_a_test():
    bare = [name for name, written in read_census().items()
            if len(written) != 2 or not KIND.fullmatch(written[0])]
    assert bare == [], (
        "give each a kind (error-path, abstract, test-support or "
        "'pending: item N') and a test that reaches it, or delete it")


def test_every_listed_function_is_defined_in_src():
    assert sorted(set(read_census()) - set(source_defs())) == []


def test_the_census_is_sorted_with_one_line_per_function():
    names = [line.split("  ")[0]
             for line in CENSUS_PATH.read_text().splitlines()]
    assert names == sorted(set(names))


def defined_tests(path: pathlib.Path) -> set:
    """``name`` and ``Class::name`` for every function in a test file."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            found.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return found


def test_every_named_test_exists():
    tests = {}
    missing = []
    for name, written in read_census().items():
        if len(written) != 2:
            continue   # the first test above reports it
        path, __, test = written[1].partition("::")
        file = ROOT / path
        if path not in tests:
            tests[path] = defined_tests(file) if file.is_file() else set()
        if test not in tests[path]:
            missing.append(f"{name}: {written[1]}")
    assert missing == []
