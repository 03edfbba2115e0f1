"""Golden digests: one sha256 per deterministic CLI output.

Each row runs one command in a fresh process, from the repository root,
and digests what it writes: standard output, or the file an ``--out
FILE`` row names.  An e2e row digests the ``sim_*`` values of its last
line, one ``name repr(value)`` line each: the virtual-clock half of the
contract form, not the host timings beside it.  Once every row has run,
``results/golden.txt`` gets one ``<sha256>  <row>`` line per row, so
``git diff --exit-code benchmarks/results`` shows that a commit
reproduces every output of the commit that wrote the file, in another
process under another hash seed.
"""

import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from .support import RESULTS_DIR, write_result

ROOT = RESULTS_DIR.parent.parent
FILE = "FILE"
E2E_WORKLOADS = ("read_hot", "read_cold", "update_batched", "fleet_async")
ROWS = (
    "python -m repro trace --seed 7",
    "python -m repro trace --seed 7 --format report",
    "python -m repro trace --seed 7 --batch-size 64",
    "python -m repro trace --seed 7 --shards 4",
    "python -m repro trace --seed 7 --shards 4 --batch-size 64",
    "python -m repro whatif --sweep",
    "python -m repro whatif --speedup bwtree:2x",
    "python -m repro crash-matrix --smoke --seed 0",
    f"python -m repro bench-engine --smoke --out {FILE}",
    *(f"python benchmarks/e2e/run.py --workload {workload} --smoke "
      "--trace 0" for workload in E2E_WORKLOADS),
)


def run(row: str, scratch: pathlib.Path) -> bytes:
    """What ``row`` outputs; fails the test on a nonzero exit."""
    argv = shlex.split(row)
    argv[0] = sys.executable
    out = scratch / "out"
    argv = [str(out) if arg == FILE else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          check=False)
    assert done.returncode == 0, row
    if FILE in row:
        return out.read_bytes()
    if "e2e/run.py" not in row:
        return done.stdout
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, last
    return "".join(f"{name} {metric['value']!r}\n"
                   for name, metric in last["metrics"].items()
                   if name.startswith("sim_")).encode()


@pytest.fixture(scope="module")
def digests():
    rows = {}
    yield rows
    # A partial run (-k, -x) must not truncate the tracked file.
    if set(rows) == set(ROWS):
        write_result("golden", "\n".join(
            f"{rows[row]}  {row}" for row in ROWS))


@pytest.mark.parametrize("row", ROWS)
def test_golden(digests, row, tmp_path):
    digests[row] = hashlib.sha256(run(row, tmp_path)).hexdigest()
