"""Make the benchmark's modules and the program importable for its tests.

Run from the repository root: ``python -m pytest benchmarks/e2e/tests -q``.
"""

import pathlib
import sys

E2E_DIR = pathlib.Path(__file__).resolve().parent.parent
REPO_ROOT = E2E_DIR.parent.parent

for path in (REPO_ROOT / "src", E2E_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
