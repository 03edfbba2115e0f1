#!/usr/bin/env python3
"""Mutant audit: which check kills which seeded defect.

Each row of :data:`MUTANTS` is one named exact-text edit to a file under
``src/repro``; the edit's old text must occur exactly once.  The audit
copies this checkout to a scratch directory, applies one mutant at a
time, runs every mechanism of :data:`MECHANISMS` against the mutated
copy, restores the file, and writes ``benchmarks/results/mutants.txt``:
one row per mutant plus one for the unmutated tree, one column per
mechanism.

The mechanisms are the commands CI already runs:

* ``lint:<rule>`` -- ``python -m repro lint``, one column per rule of
  ``repro.analysis.all_rules()`` (one run, its findings counted by rule:
  the same findings ``--select <rule>`` reports);
* the tier-1 suite, run once without ``-x``, with hypothesis seeded and
  not shrinking, each failing test attributed by its module to one of
  :data:`TIER1_COLUMNS` (``tests/analysis/`` is the lint's own suite and
  counts for none of them, except ``test_pinned_bugs.py``; the test of
  this table is left out, as it reads the file being written);
* ``crash-matrix --smoke --seed 0``, the ``bench-engine --smoke``
  floors and the e2e ``--smoke`` oracle, each killed by a nonzero exit.

A cell reads the number of findings or failing tests, ``x`` for a
nonzero exit, ``T`` for a timeout (a timeout kills), ``.`` for none.
The unmutated tree runs twice; a test that fails in either run is named
and left out of every column.  A mutant no mechanism kills is listed as
a survivor with its ``survives`` reason.

Run from the repository root (about half an hour on two cores)::

    python benchmarks/mutants.py
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pathlib
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "benchmarks" / "results" / "mutants.txt"

if str(ROOT / "src") not in sys.path:    # run as a script from a checkout
    sys.path.insert(0, str(ROOT / "src"))
from repro.analysis import all_rules  # noqa: E402


class Mutant(NamedTuple):
    """One seeded defect: replace ``old`` (found once in ``path``) by
    ``new``.  ``origin`` names the defect class it stands for (a ROADMAP
    item 5 seed kind or the lint rule whose tests it was moved from);
    ``survives`` says why no mechanism can see it, for a survivor."""

    name: str
    origin: str
    path: str
    old: str
    new: str
    survives: str = ""


#: The apply loop of ``TransactionComponent.commit``, which one mutant
#: runs before the end record is logged.
_COMMIT_APPLY = (
    "                for applied in logged:\n"
    "                    key = applied.key\n"
    "                    value = applied.value\n"
    "                    self.versions.add(applied)\n"
    "                    self.read_cache.invalidate(key)\n"
    "                    # The DC update is blind: no read, just a delta post\n"
    '                    # (Section 6.2 — "all transactional updates are blind\n'
    '                    # updates at the Bw-tree").  With the record store\n'
    "                    # on, the delta lands in the record heap instead\n"
    "                    # (dirty) and the DC absorbs it lazily at\n"
    "                    # drain/checkpoint time — the commit never touches a\n"
    "                    # page.\n"
    "                    if (self.records is not None\n"
    "                            and self.records.append_record(\n"
    "                                key, value, dirty=True)):\n"
    "                        pass\n"
    "                    elif value is None:\n"
    "                        self.dc.delete(key)\n"
    "                    else:\n"
    "                        self.dc.upsert(key, value)\n"
    '                    self.counters.add("tc.writes_applied")\n'
)

#: The version installs and DC post of ``_group_commit``, which one
#: mutant runs before the group's records are logged.
_GROUP_APPLY = (
    "            read_cache = self.read_cache\n"
    "            cached = read_cache.entries\n"
    "            heap = self.records\n"
    "            dc_ops: List[Tuple[bytes, Optional[bytes]]] = []\n"
    "            for record in records:\n"
    "                key = record.key\n"
    "                value = record.value\n"
    "                versions.add(record)\n"
    "                if key in cached:\n"
    "                    read_cache.invalidate(key)\n"
    "                if heap is None or not heap.append_record(key, value,\n"
    "                                                          dirty=True):\n"
    "                    dc_ops.append((key, value))\n"
    '                counts["tc.writes_applied"] += 1.0\n'
    "            if committed:\n"
    '                counts["tc.commits"] += committed\n'
    "            if dc_ops:\n"
    "                # Blind posts, exactly as in :meth:`commit`, but the DC\n"
    "                # enters its epoch and dispatches once for the whole group.\n"
    "                self.dc.apply_blind_batch(dc_ops)\n"
)


MUTANTS: Tuple[Mutant, ...] = (
    # --- ROADMAP item 5's seed kinds -----------------------------------
    Mutant(
        "drop-stamp-bill", "seed: drop a charge or bill",
        "src/repro/deuteronomy/tc.py",
        "            bill = machine.cpu.bill\n"
        "            bill(self._stamp)\n",
        "            bill = machine.cpu.bill\n",
    ),
    Mutant(
        "swap-post-charges", "seed: swap a charge or bill",
        "src/repro/bwtree/tree.py",
        'plan("bwtree", "mapping_table_lookup", "install_cas",',
        'plan("bwtree", "install_cas", "mapping_table_lookup",',
    ),
    Mutant(
        "wal-append-after-post", "seed: WAL append after the DC post",
        "src/repro/deuteronomy/tc.py",
        "            log.append_batch(records)\n" + _GROUP_APPLY,
        _GROUP_APPLY + "            log.append_batch(records)\n",
    ),
    Mutant(
        "skip-after-write-hit", "seed: skip a faults.hit",
        "src/repro/deuteronomy/recovery_log.py",
        "            if faults is not None:\n"
        '                faults.hit("recovery_log.flush.after_write")\n',
        "",
    ),
    Mutant(
        "durable-lsn-plus-one", "seed: durable_lsn off by one",
        "src/repro/deuteronomy/recovery_log.py",
        "        return len(self.durable_records)\n",
        "        return len(self.durable_records) + 1\n",
    ),
    Mutant(
        "promote-stale-copy", "seed: skip the stale-copy invalidation",
        "src/repro/storage/cache.py",
        "            if (entry.state is not None\n"
        "                    or copy.chain != tuple(entry.flash_chain)):\n",
        "            if entry.state is not None:\n",
    ),
    Mutant(
        "resolve-newest-future", "seed: resolve futures out of order",
        "src/repro/deuteronomy/commit_pipeline.py",
        "            future = pending.popleft()\n",
        "            future = pending.pop()\n",
    ),
    Mutant(
        "commits-row-is-level", "seed: flip a STATS row's kind",
        "src/repro/deuteronomy/engine.py",
        '    ("commits", "counter",',
        '    ("commits", "level",',
    ),
    Mutant(
        "bill-before-check", "seed: bill before validating",
        "src/repro/deuteronomy/tc.py",
        "        check_batch(ops, self.config.log_buffer_bytes)\n"
        "        machine = self.machine\n"
        "        bill = machine.cpu.bill\n"
        "        copy = self._copy\n"
        "        tracer = machine.tracer\n"
        "        counts = self._counts\n"
        "        bill(self._begin_dispatch)\n",
        "        machine = self.machine\n"
        "        bill = machine.cpu.bill\n"
        "        copy = self._copy\n"
        "        tracer = machine.tracer\n"
        "        counts = self._counts\n"
        "        bill(self._begin_dispatch)\n"
        "        check_batch(ops, self.config.log_buffer_bytes)\n",
    ),
    Mutant(
        "nan-passes-bounds", "seed: a NaN-unsafe bound",
        "src/repro/frozen.py",
        "                or not low <= value < high):\n",
        "                or value < low or value >= high):\n",
    ),
    Mutant(
        "unconsumed-mode", "seed: an option value with no consumer",
        "src/repro/deuteronomy/record_cache.py",
        'CONCURRENCY_MODES = ("latch_free", "latched")\n',
        'CONCURRENCY_MODES = ("latch_free", "latched", "optimistic")\n',
    ),
    Mutant(
        "unread-counter", "seed: a counter with no reader",
        "src/repro/deuteronomy/tc.py",
        '            counts["tc.group_commits"] += 1.0\n',
        '            counts["tc.group_commits"] += 1.0\n'
        '            counts["tc.group_records"] += len(records)\n',
    ),
    Mutant(
        "replay-torn-head", "seed: replay a torn transaction's head",
        "src/repro/deuteronomy/engine.py",
        "        durable = crashed.tc.log.whole_transactions()\n",
        "        durable = crashed.tc.log.durable_records\n",
    ),
    Mutant(
        "seal-before-submit", "seed: seal before submit in spill",
        "src/repro/deuteronomy/commit_pipeline.py",
        "            submitted = self.log.submit_sealed(self.device)\n"
        "            self.log.seal()\n",
        "            self.log.seal()\n"
        "            submitted = self.log.submit_sealed(self.device)\n",
    ),
    Mutant(
        "raising-spill-bills-nothing", "seed: bill nothing when a spill raises",
        "src/repro/deuteronomy/recovery_log.py",
        "                except Exception:\n"
        "                    if total_bytes:\n"
        "                        self.machine.cpu.bill(self._append, total_bytes)\n"
        "                        self.appended_bytes += total_bytes\n"
        "                    raise\n",
        "                except Exception:\n"
        "                    raise\n",
    ),
    Mutant(
        "admit-oversized-record", "seed: admit a record larger than the buffer",
        "src/repro/deuteronomy/tc.py",
        "    room = log_buffer_bytes - LOG_RECORD_OVERHEAD_BYTES\n",
        "    room = math.inf\n",
    ),
    Mutant(
        "drain-marks-clean-first", "seed: mark drained records clean early",
        "src/repro/deuteronomy/record_cache.py",
        "        if drained:\n"
        "            post(drained)\n"
        "        for key in self._dirty:\n"
        "            index[key].dirty = False\n"
        "        self._dirty.clear()\n"
        "        self._dirty_bytes = 0\n",
        "        for key in self._dirty:\n"
        "            index[key].dirty = False\n"
        "        self._dirty.clear()\n"
        "        self._dirty_bytes = 0\n"
        "        if drained:\n"
        "            post(drained)\n",
    ),
    # --- each lint rule's own cases, moved onto real sites ---------------
    Mutant(
        "scan-skips-dispatch", "rule: cost-accounting",
        "src/repro/bwtree/tree.py",
        "            self.machine.begin_operation()\n"
        '            self.machine.cpu.charge("op_dispatch", category="bwtree")\n'
        '            self.machine.cpu.charge("epoch_protect", category="bwtree")\n',
        "            self.machine.begin_operation()\n",
    ),
    Mutant(
        "delta-drop-unbilled", "rule: cost-accounting",
        "src/repro/storage/cache.py",
        "            self.flush_page(entry)\n"
        "        self.machine.cpu.bill(self._evict)\n"
        "        entry.state = None\n",
        "            self.flush_page(entry)\n"
        "        entry.state = None\n",
    ),
    Mutant(
        "unseeded-noise-rng", "rule: determinism",
        "src/repro/faults/plan.py",
        "            random.Random(self.plan.noise_seed)\n",
        "            random.Random()\n",
    ),
    Mutant(
        "zipf-shared-rng", "rule: determinism",
        "src/repro/workloads/distributions.py",
        "    draw = random.Random(seed).random\n",
        "    draw = random.random\n",
    ),
    Mutant(
        "segment-info-unslotted", "rule: slots-dataclass",
        "src/repro/storage/log_store.py",
        "@dataclass(slots=True)\nclass SegmentInfo:\n",
        "@dataclass\nclass SegmentInfo:\n",
    ),
    Mutant(
        "transaction-unslotted", "rule: slots-dataclass",
        "src/repro/deuteronomy/tc.py",
        "@dataclass(slots=True)\nclass Transaction:\n",
        "@dataclass\nclass Transaction:\n",
    ),
    Mutant(
        "shared-delta-list", "rule: mutable-default",
        "src/repro/storage/pages.py",
        "        deltas: Optional[List[Record]] = None,\n",
        "        deltas: Optional[List[Record]] = [],\n",
    ),
    Mutant(
        "shared-protect-set", "rule: mutable-default",
        "src/repro/storage/cache.py",
        "    def ensure_capacity(self, protect: Optional[Set[int]] = None)",
        "    def ensure_capacity(self, protect: Optional[Set[int]] = set())",
    ),
    Mutant(
        "commit-applies-then-logs", "rule: wal-ordering",
        "src/repro/deuteronomy/tc.py",
        "                self.log.append(record)\n"
        "                logged.append(record)\n"
        "                if not record.end:\n"
        "                    continue\n" + _COMMIT_APPLY,
        "                logged.append(record)\n"
        "                if not record.end:\n"
        "                    self.log.append(record)\n"
        "                    continue\n" + _COMMIT_APPLY
        + "                self.log.append(record)\n",
    ),
    Mutant(
        "checkpoint-invalidates-first", "rule: wal-ordering",
        "src/repro/storage/checkpoint.py",
        "        self.store.flush()\n"
        "        if faults is not None:\n"
        '            faults.hit("checkpoint.write.after_flush")\n'
        "        previous, self._latest_addr = self._latest_addr, addr\n"
        "        if previous is not None:\n"
        "            try:\n"
        "                self.store.invalidate(previous)\n"
        "            except KeyError:\n"
        "                # Its segment was already reclaimed (deferred GC drop).\n"
        "                pass\n",
        "        previous, self._latest_addr = self._latest_addr, addr\n"
        "        if previous is not None:\n"
        "            try:\n"
        "                self.store.invalidate(previous)\n"
        "            except KeyError:\n"
        "                # Its segment was already reclaimed (deferred GC drop).\n"
        "                pass\n"
        "        self.store.flush()\n"
        "        if faults is not None:\n"
        '            faults.hit("checkpoint.write.after_flush")\n',
    ),
    Mutant(
        "heap-lookup-before-protect", "rule: epoch-discipline",
        "src/repro/deuteronomy/record_cache.py",
        "            self._charge_protect()\n"
        '            self.machine.cpu.charge("hash_probe", category=CHARGE_CATEGORY)\n'
        "            record = self._index.get(key)\n",
        "            record = self._index.get(key)\n"
        "            self._charge_protect()\n"
        '            self.machine.cpu.charge("hash_probe", category=CHARGE_CATEGORY)\n',
    ),
    Mutant(
        "heap-pop-before-protect", "rule: epoch-discipline",
        "src/repro/deuteronomy/record_cache.py",
        "        self._charge_protect()\n"
        '        self.machine.cpu.charge("hash_probe", category=CHARGE_CATEGORY)\n'
        "        record = self._index.pop(key, None)\n",
        "        record = self._index.pop(key, None)\n"
        "        self._charge_protect()\n"
        '        self.machine.cpu.charge("hash_probe", category=CHARGE_CATEGORY)\n',
    ),
    Mutant(
        "segment-write-before-hit", "rule: fault-site-coverage",
        "src/repro/storage/log_store.py",
        "            if faults is not None:\n"
        '                faults.hit("log_store.flush")\n'
        "            self.machine.ssd.write(used)\n",
        "            self.machine.ssd.write(used)\n"
        "            if faults is not None:\n"
        '                faults.hit("log_store.flush")\n',
    ),
    Mutant(
        "segment-drop-before-hit", "rule: fault-site-coverage",
        "src/repro/storage/gc.py",
        "            if faults is not None:\n"
        '                faults.hit("gc.drop_segment")\n'
        "            # Issuing the trim/erase for the reclaimed range is an I/O\n"
        "            # submission like any other.\n"
        "            self.machine.io_path.charge_submit(0)\n"
        "            if segment_id in self.store.segments:\n"
        "                reclaimed += self.store.drop_segment(segment_id)\n",
        "            # Issuing the trim/erase for the reclaimed range is an I/O\n"
        "            # submission like any other.\n"
        "            self.machine.io_path.charge_submit(0)\n"
        "            if segment_id in self.store.segments:\n"
        "                reclaimed += self.store.drop_segment(segment_id)\n"
        "            if faults is not None:\n"
        '                faults.hit("gc.drop_segment")\n',
    ),
)

#: The tier-1 columns.  A failing test counts in the first column whose
#: modules list its module; otherwise in ``frame-guards`` if its module
#: calls ``count_calls``, in ``hypothesis`` if it imports hypothesis,
#: else in ``unit``.
TIER1_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "reconciliation": (
        "tests/observability/test_reconciliation.py",
        "tests/observability/test_trace_cli.py",
        "tests/integration/test_dram_ledger.py",
    ),
    "digests": ("tests/integration/test_charge_digest.py",),
    "censuses": (
        "tests/test_code_census.py",
        "tests/test_state_census.py",
        "tests/test_config_surface.py",
        "tests/test_config_bounds.py",
        "tests/test_private_access.py",
        "tests/test_hot_path_census.py",
        "tests/deuteronomy/test_data_component.py",
    ),
    "frame-guards": (),
    "hypothesis": (),
    "unit": (),
}
#: The lint's own tests: they run the rules, so they count for no
#: runtime column.
LINT_SUITE = "tests/analysis/"
LINT_SUITE_RUNTIME = ("tests/analysis/test_pinned_bugs.py",)

RULES = tuple(rule.rule_id for rule in all_rules())
MECHANISMS: Tuple[str, ...] = (
    *(f"lint:{rule}" for rule in RULES),
    *TIER1_COLUMNS,
    "crash-matrix",
    "floors",
    "e2e-oracle",
)
RUNTIME = MECHANISMS[len(RULES):]

#: Each command, its timeout in seconds, run from the copy's root with
#: the copy's ``src`` and :data:`SITE` on ``PYTHONPATH``.
TIER1 = ("python -m pytest -q -p no:cacheprovider -rfE -p mutant_profile "
         "--hypothesis-profile=mutants --hypothesis-seed=0 "
         "--ignore=tests/test_mutants_table.py", 1800)
#: Modules written to the copy's ``audit_site`` directory.  Tier-1
#: loads ``mutant_profile``: hypothesis keeps no example database, does
#: not shrink (a failing property fails at once) and runs no timing
#: health check (a slow host kills no mutant).  Every process loads
#: ``sitecustomize``: an unseeded ``random.Random`` takes the next seed
#: of one fixed sequence and the module's shared generator starts from
#: seed 0, so a mutant that drops a seed replays the same wrong draws in
#: every audit and the table is a function of the tree.
SITE = {
    "mutant_profile.py": """\
from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "mutants", database=None, phases=(Phase.explicit, Phase.generate),
    suppress_health_check=list(HealthCheck))
""",
    "sitecustomize.py": """\
import random

_next_seed = iter(range(1 << 62)).__next__
_seed = random.Random.seed


def _replayed(self, a=None, version=2):
    _seed(self, _next_seed() if a is None else a, version)


random.Random.seed = _replayed
random.seed(0)
""",
}
LINT = ("python -m repro lint --format json", 300)
EXIT_CHECKS = {
    "crash-matrix": ("python -m repro crash-matrix --smoke --seed 0", 300),
    "floors": ("python -m repro bench-engine --smoke --out -", 300),
    "e2e-oracle": ("python benchmarks/e2e/run.py --smoke", 600),
}

_SUMMARY = re.compile(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[.*?\])?)")
_SKIP_DIRS = {".git", "__pycache__", ".hypothesis", ".pytest_cache",
              ".benchmarks", ".claude", "out"}

#: A row: mechanism -> cell, plus the failing tier-1 test ids.
Row = Tuple[Dict[str, str], Set[str]]


def _run(command: str, cwd: pathlib.Path,
         timeout: float) -> Optional[Tuple[int, str]]:
    """(exit status, stdout) of ``command``, or ``None`` on a timeout
    (the whole process group is killed)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=f"{cwd / 'src'}{os.pathsep}{cwd / 'audit_site'}")
    process = subprocess.Popen(
        command.split(), cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        stdout, __ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None
    return process.returncode, stdout


def _column(test_id: str, tree: pathlib.Path) -> Optional[str]:
    """The tier-1 column a failing test counts in (``None``: the lint's
    own suite)."""
    module = test_id.split("::")[0]
    if module.startswith(LINT_SUITE) and module not in LINT_SUITE_RUNTIME:
        return None
    for column, modules in TIER1_COLUMNS.items():
        if module in modules:
            return column
    text = (tree / module).read_text(encoding="utf-8")
    if "count_calls" in text:
        return "frame-guards"
    if re.search(r"^(from|import) hypothesis", text, re.MULTILINE):
        return "hypothesis"
    return "unit"


def _cell(count: int) -> str:
    return str(count) if count else "."


def run_mechanisms(tree: pathlib.Path) -> Row:
    """Every mechanism's cell on ``tree`` as it stands, and the ids of
    the tier-1 tests that failed."""
    cells: Dict[str, str] = {}
    linted = _run(LINT[0], tree, LINT[1])
    for rule in RULES:
        if linted is None:
            cells[f"lint:{rule}"] = "T"
            continue
        if linted[0] not in (0, 1):
            cells[f"lint:{rule}"] = "x"
            continue
        findings = json.loads(linted[1] or "[]")
        cells[f"lint:{rule}"] = _cell(
            sum(1 for finding in findings if finding["rule"] == rule))
    tested = _run(TIER1[0], tree, TIER1[1])
    failed: Set[str] = set()
    if tested is None:
        cells.update((column, "T") for column in TIER1_COLUMNS)
    else:
        for line in tested[1].splitlines():
            match = _SUMMARY.match(line)
            if match is not None:
                failed.add(match.group(1))
        if tested[0] != 0 and not failed:
            failed.add("<tier-1 exited without a test summary>")
    for column, (command, timeout) in EXIT_CHECKS.items():
        result = _run(command, tree, timeout)
        cells[column] = "T" if result is None else (
            "x" if result[0] != 0 else ".")
    return cells, failed


def attribute(row: Row, excluded: Set[str],
              tree: pathlib.Path) -> Dict[str, str]:
    """Fold a row's failing tests into its tier-1 cells."""
    cells, failed = row
    if cells.get("unit") == "T":
        return cells
    counts = {column: 0 for column in TIER1_COLUMNS}
    for test_id in failed - excluded:
        column = ("unit" if test_id.startswith("<")
                  else _column(test_id, tree))
        if column is not None:
            counts[column] += 1
    return {**cells, **{column: _cell(count)
                        for column, count in counts.items()}}


def _copy_tree(destination: pathlib.Path) -> pathlib.Path:
    def ignore(directory: str, names: List[str]) -> Set[str]:
        return {name for name in names if name in _SKIP_DIRS}

    tree = destination / "tree"
    shutil.copytree(ROOT, tree, ignore=ignore)
    (tree / "audit_site").mkdir()
    for name, text in SITE.items():
        (tree / "audit_site" / name).write_text(text, encoding="utf-8")
    return tree


def _mutate(tree: pathlib.Path, mutant: Mutant) -> str:
    """Apply ``mutant`` in ``tree``; returns the file's original text."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


def audit(scratch: pathlib.Path, workers: int = 2) -> Dict[str, Row]:
    """Run the unmutated tree twice and every mutant once, on
    ``workers`` copies under ``scratch``; returns the rows by name."""
    trees: "queue.Queue[pathlib.Path]" = queue.Queue()
    for index in range(workers):
        trees.put(_copy_tree(scratch / str(index)))

    def job(name: str) -> Tuple[str, Row]:
        tree = trees.get()
        try:
            mutant = next((m for m in MUTANTS if m.name == name), None)
            original = None if mutant is None else _mutate(tree, mutant)
            try:
                return name, run_mechanisms(tree)
            finally:
                if mutant is not None and original is not None:
                    (tree / mutant.path).write_text(original,
                                                    encoding="utf-8")
        finally:
            trees.put(tree)

    names = ["unmutated", "unmutated-again", *(m.name for m in MUTANTS)]
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        return dict(pool.map(job, names))


def render(rows: Dict[str, Row], tree: pathlib.Path) -> Tuple[str, List[str]]:
    """The table's text, and the survivors that carry no reason."""
    first, second = rows["unmutated"], rows["unmutated-again"]
    excluded = first[1] | second[1]
    table = {"unmutated": attribute(first, excluded, tree)}
    for mutant in MUTANTS:
        table[mutant.name] = attribute(rows[mutant.name], excluded, tree)
    width = max(len(name) for name in table)
    widths = [len(column) for column in MECHANISMS]
    lines = [
        "# Mutant audit (python benchmarks/mutants.py): one row per "
        "seeded defect,",
        "# one column per mechanism; n = findings or failing tests, "
        "x = nonzero exit,",
        "# T = timeout, . = not killed.",
        "  ".join(["mutant".ljust(width),
                   *(c.rjust(w) for c, w in zip(MECHANISMS, widths))]),
    ]
    for name, cells in table.items():
        lines.append("  ".join([name.ljust(width), *(
            cells[c].rjust(w) for c, w in zip(MECHANISMS, widths))]))
    lines += ["", "origins:"]
    lines += [f"  {m.name}: {m.origin}" for m in MUTANTS]
    lines += ["", "excluded tests (fail on the unmutated tree, in "
              "either of two runs):"]
    lines += [f"  {test_id}" for test_id in sorted(excluded)] or ["  none"]
    lines += ["", "survivors (no mechanism kills them):"]
    unexplained = []
    survivors = [m for m in MUTANTS
                 if all(table[m.name][c] == "." for c in MECHANISMS)]
    for mutant in survivors:
        lines.append(f"  {mutant.name}: {mutant.survives or '(no reason)'}")
        if not mutant.survives:
            unexplained.append(mutant.name)
    if not survivors:
        lines.append("  none")
    lines += ["", "kills no runtime mechanism makes, by rule:"]
    for rule in RULES:
        unique = [m.name for m in MUTANTS
                  if table[m.name][f"lint:{rule}"] != "."
                  and all(table[m.name][c] == "." for c in RUNTIME)]
        lines.append(f"  {rule}: {', '.join(unique) or 'none'}")
    return "\n".join(lines) + "\n", unexplained


def main() -> int:
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        text, unexplained = render(audit(scratch), scratch / "0" / "tree")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    RESULTS_PATH.write_text(text, encoding="utf-8")
    print(text, end="")
    if unexplained:
        print("survivors without a reason: " + ", ".join(unexplained))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
