#!/usr/bin/env python3
"""Code census: every ``src/repro`` function that no CI command enters.

Runs each command in :data:`COMMANDS` (what ``.github/workflows/ci.yml``
runs, minus the test suites) in a subprocess whose ``PYTHONPATH`` starts
with a generated ``sitecustomize.py``.  That module installs a profile
hook in every Python process the command starts (e2e's workers too) and,
at exit, writes the qualified name of each ``src/repro`` code object it
saw called.  A ``def`` in ``src/repro`` (a module-level function or a
method, not a nested function, lambda or comprehension) that no process
called is unreached, and is one line of ``benchmarks/results/census.txt``::

    module:qualname  kind  test

``kind`` says why only a test runs it: ``error-path`` (runs only when a
check fails), ``abstract`` (an interface body nothing calls),
``test-support`` (an accessor or helper that only tests read) or
``pending: item N`` (a ROADMAP item decides it); ``test`` is a test that
reaches it (for ``abstract``, one that runs an implementation).  Both
are written by hand: regeneration keeps what is already written, and a
newly unreached function arrives as a bare name, which
``tests/test_code_census.py`` refuses until it has a kind.

Run from the repository root (about three minutes; Python >= 3.11 for
``co_qualname``)::

    python benchmarks/census.py
    git diff --exit-code benchmarks/results/census.txt
"""

from __future__ import annotations

import ast
import glob
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
CENSUS_PATH = ROOT / "benchmarks" / "results" / "census.txt"

#: The consumer commands, each exactly as ``ci.yml`` runs it after
#: ``PYTHONPATH=src`` (``tests/test_ci.py`` checks that it does).  An
#: ``--out PATH`` runs as ``--out -`` here, and ``"$example"`` stands for
#: each ``examples/*.py`` in turn, as in CI's loop.
COMMANDS = (
    "python -m repro lint",
    "python -m repro lint --format sarif",
    "python -m repro doc-check",
    "python -m pytest benchmarks --ignore=benchmarks/e2e -q "
    "--benchmark-disable",
    'python "$example"',
    "python -m repro trace --smoke",
    "python -m repro trace --seed 7 --out run1.json",
    "python -m repro trace --seed 7 --format report --out report1.txt",
    "python -m repro trace --seed 7 --batch-size 64 --out batch1.json",
    "python -m repro trace --seed 7 --shards 4 --batch-size 64 "
    "--out fleet1.json",
    "python -m repro bench-engine --smoke --out -",
    "python -m repro bench-engine --trace --out regenerated.json",
    "python -m repro whatif --smoke",
    "python -m repro whatif --sweep --out whatif1.txt",
    "python -m repro crash-matrix --smoke --seed 0",
    "python benchmarks/e2e/run.py --smoke",
)

#: The hook each traced process imports at start-up.
SITECUSTOMIZE = '''\
import atexit
import os
import sys

_seen = set()


def _on_event(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _write():
    sys.setprofile(None)
    prefix = os.environ["REPRO_CENSUS_SOURCE"] + os.sep
    names = sorted({(code.co_filename, code.co_qualname) for code in _seen
                    if code.co_filename.startswith(prefix)})
    path = os.path.join(os.environ["REPRO_CENSUS_DIR"], f"{os.getpid()}.txt")
    with open(path, "w") as out:
        out.writelines(f"{filename}\\t{qualname}\\n"
                       for filename, qualname in names)


atexit.register(_write)
sys.setprofile(_on_event)
'''


def module_name(path: pathlib.Path) -> str:
    """``src/repro/bwtree/tree.py`` -> ``repro.bwtree.tree``."""
    parts = path.resolve().relative_to(SOURCE).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _defs(body: List[ast.stmt], prefix: str
          ) -> Iterator[Tuple[str, ast.AST]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")


def source_defs() -> Dict[str, int]:
    """Every module-level function and method: ``module:qualname`` ->
    source lines (a property's setter adds to its getter's)."""
    found: Dict[str, int] = {}
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        module = module_name(path)
        for qualname, node in _defs(ast.parse(path.read_text()).body, ""):
            name = f"{module}:{qualname}"
            lines = node.end_lineno - node.lineno + 1
            found[name] = found.get(name, 0) + lines
    return found


def _argvs(command: str) -> Iterator[List[str]]:
    argv = shlex.split(command)
    argv[0] = sys.executable
    if "--out" in argv:
        argv[argv.index("--out") + 1] = "-"
    if "$example" not in argv:
        yield argv
        return
    for example in sorted(glob.glob(str(ROOT / "examples" / "*.py"))):
        yield [example if arg == "$example" else arg for arg in argv]


def reached() -> Set[str]:
    """``module:qualname`` of every ``src/repro`` function some process of
    some command in :data:`COMMANDS` called."""
    names: Set[str] = set()
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = pathlib.Path(scratch) / "hook"
        records = pathlib.Path(scratch) / "records"
        hook_dir.mkdir()
        records.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(hook_dir), str(SOURCE)]),
            "PYTHONHASHSEED": "0",
            "REPRO_CENSUS_SOURCE": str(SOURCE / "repro"),
            "REPRO_CENSUS_DIR": str(records),
        }
        for command in COMMANDS:
            for argv in _argvs(command):
                print(f"census: {' '.join(argv[1:])}", file=sys.stderr)
                subprocess.run(argv, cwd=ROOT, env=env, check=True,
                               stdout=subprocess.DEVNULL)
        for record in records.iterdir():
            for line in record.read_text().splitlines():
                filename, qualname = line.split("\t")
                names.add(f"{module_name(pathlib.Path(filename))}:{qualname}")
    return names


def read_census(path: pathlib.Path = CENSUS_PATH
                ) -> Dict[str, Tuple[str, ...]]:
    """``module:qualname`` -> its written ``(kind, test)``, or ``()`` for a
    name that has none yet."""
    if not path.exists():
        return {}
    entries: Dict[str, Tuple[str, ...]] = {}
    for line in path.read_text().splitlines():
        name, *rest = line.split("  ")
        entries[name] = tuple(rest)
    return entries


def main() -> int:
    defs = source_defs()
    unreached = sorted(set(defs) - reached())
    written = read_census()
    lines = ["  ".join((name, *written.get(name, ()))) for name in unreached]
    CENSUS_PATH.write_text("".join(line + "\n" for line in lines))
    print(f"census: {len(unreached)} of {len(defs)} functions unreached "
          f"({sum(defs[name] for name in unreached):,} lines); wrote "
          f"{CENSUS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
