"""The package runs on the standard library alone.

An import such as ``numpy`` costs about 14 MiB of resident memory, which
the end-to-end benchmark's peak-RSS bound would charge to every run."""

import os
import subprocess
import sys

import repro

SCRIPT = """
import sys

before = set(sys.modules)

import repro
from repro.scenarios import Scenario

Scenario(seed=3, mix="a", record_count=200, op_count=100).measure()
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"repro"}))
"""


def test_a_ycsb_run_imports_only_the_standard_library():
    root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
