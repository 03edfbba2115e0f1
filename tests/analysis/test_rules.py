"""Per-rule unit tests on synthetic snippets.

Each rule gets the same trio: a *positive* snippet that must be
flagged, the identical snippet with a ``# repro: ignore[rule-id]``
suppression that must stay silent, and a *negative* snippet that is
clean by construction.  Snippets are written to a temporary directory,
which is outside the repro tree — the package-scoping convention then
applies every rule to them regardless of directory names.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import pytest

from repro.analysis import Finding, lint_paths


def _lint_snippet(tmp_path: Path, code: str, rule_id: str,
                  filename: str = "snippet.py") -> List[Finding]:
    target = tmp_path / filename
    target.write_text(code)
    return [
        finding for finding in lint_paths([str(tmp_path)])
        if finding.rule == rule_id
    ]


# ---------------------------------------------------------------------------
# cost-accounting
# ---------------------------------------------------------------------------

COST_POSITIVE = """\
class PageStore:
    def __init__(self, machine):
        self.machine = machine
        self.pages = {}

    def fetch(self, page_id):
        self.machine.cpu.charge("page_read", category="store")
        return self.pages[page_id]


class Engine:
    def __init__(self, machine):
        self.machine = machine
        self.store = PageStore(machine)

    def lookup(self, page_id):
        if page_id in self.store.pages:
            page = self.store.fetch(page_id)
            return page
        entry = self.store.pages.get(page_id)
        if entry is not None:
            entry.state = None
        return entry
"""


class TestCostAccounting:
    RULE = "cost-accounting"

    def test_uncharged_touch_path_is_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, COST_POSITIVE, self.RULE)
        assert len(findings) == 1
        finding = findings[0]
        assert "Engine.lookup" in finding.message
        # Points at the def line of the offending method.
        assert finding.line == COST_POSITIVE.splitlines().index(
            "    def lookup(self, page_id):"
        ) + 1

    def test_suppression_silences(self, tmp_path):
        suppressed = COST_POSITIVE.replace(
            "def lookup(self, page_id):",
            "def lookup(self, page_id):  # repro: ignore[cost-accounting]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_charging_every_path_is_clean(self, tmp_path):
        clean = COST_POSITIVE.replace(
            "    def lookup(self, page_id):\n",
            "    def lookup(self, page_id):\n"
            "        self.machine.cpu.charge(\"op_dispatch\")\n",
        )
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    def test_raise_paths_are_exempt(self, tmp_path):
        code = COST_POSITIVE.replace(
            "        entry = self.store.pages.get(page_id)\n"
            "        if entry is not None:\n"
            "            entry.state = None\n"
            "        return entry\n",
            "        raise KeyError(page_id)\n",
        ).replace(
            "            page = self.store.fetch(page_id)\n"
            "            return page\n",
            "            return self.store.fetch(page_id)\n",
        )
        assert not _lint_snippet(tmp_path, code, self.RULE)

    def test_charge_through_callee_counts(self, tmp_path):
        # store.fetch charges internally, so a method whose only touch
        # is that call is clean — the call graph credits the callee.
        code = COST_POSITIVE.replace(
            "        entry = self.store.pages.get(page_id)\n"
            "        if entry is not None:\n"
            "            entry.state = None\n"
            "        return entry\n",
            "        return self.store.fetch(page_id)\n",
        )
        assert not _lint_snippet(tmp_path, code, self.RULE)

    def test_fault_site_hit_without_charge_is_flagged(self, tmp_path):
        # Arriving at a fault site marks real storage-path work: the
        # registered hooks (hit / run_with_retries / drop_pending) are
        # domain touch verbs, so an uncharged path through them is a
        # finding.
        code = """\
class Store:
    def __init__(self, machine):
        self.machine = machine

    def flush(self, nbytes):
        self.machine.faults.hit("log_store.flush")
        return nbytes

    def drain(self):
        self.machine.io_path.charge_round_trip(512)
        self.machine.faults.hit("log_store.flush")
        return self.drop_pending()

    def drop_pending(self):
        self.machine.io_path.charge_submit(0)
        return 0
"""
        findings = _lint_snippet(tmp_path, code, self.RULE)
        assert len(findings) == 1
        assert "Store.flush" in findings[0].message

    DEMOTE_POSITIVE = """\
class Cache:
    def __init__(self, machine, tiers):
        self.machine = machine
        self.tiers = tiers

    def push_out(self, entry, state):
        self.tiers.demote(entry, state, 1.0)
        return None

    def bring_back(self, entry):
        copy = self.tiers.promote(entry)
        return copy
"""

    @pytest.mark.parametrize("method", ["Cache.push_out", "Cache.bring_back"])
    def test_uncharged_demote_and_promote_are_flagged(self, tmp_path,
                                                      method):
        # Tier demotion/promotion moves page bytes between tiers: it is
        # domain work even on an unknown receiver, so an uncharged path
        # through either verb is a finding.
        findings = _lint_snippet(tmp_path, self.DEMOTE_POSITIVE, self.RULE)
        assert method in {finding.message.split()[0]
                          for finding in findings} \
            or any(method in finding.message for finding in findings)

    def test_charged_demote_and_promote_are_clean(self, tmp_path):
        clean = self.DEMOTE_POSITIVE.replace(
            "        self.tiers.demote(entry, state, 1.0)\n",
            "        self.machine.cpu.charge(\"copy_per_byte\", 64)\n"
            "        self.tiers.demote(entry, state, 1.0)\n",
        ).replace(
            "        copy = self.tiers.promote(entry)\n",
            "        self.machine.cpu.charge(\"copy_per_byte\", 64)\n"
            "        copy = self.tiers.promote(entry)\n",
        )
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    SCALE_POSITIVE = """\
class Installer:
    def __init__(self, machine):
        self.machine = machine

    def install(self, factors):
        self.machine.cpu.scale_costs(factors)
        return factors
"""

    def test_uncharged_scale_costs_is_flagged(self, tmp_path):
        # Installing what-if charge scaling re-prices every subsequent
        # hot-path charge: it is a registered domain touch verb, so an
        # uncharged path through it is a finding.
        findings = _lint_snippet(tmp_path, self.SCALE_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "Installer.install" in findings[0].message

    def test_charged_scale_costs_is_clean(self, tmp_path):
        clean = self.SCALE_POSITIVE.replace(
            "        self.machine.cpu.scale_costs(factors)\n",
            "        self.machine.cpu.charge(\"op_dispatch\")\n"
            "        self.machine.cpu.scale_costs(factors)\n",
        )
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    def test_scale_costs_suppression_silences(self, tmp_path):
        suppressed = self.SCALE_POSITIVE.replace(
            "    def install(self, factors):",
            "    def install(self, factors):"
            "  # repro: ignore[cost-accounting]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    DEFERRED_CHARGE = """\
class Reader:
    def __init__(self, machine, cache):
        self.machine = machine
        self.cache = cache

    def lookup(self, entry):
        self.cache.fetch(entry)
        later = lambda: self.machine.cpu.charge("page_read")
        return later
"""

    @pytest.mark.parametrize("shape", ["lambda", "def"])
    def test_a_charge_that_is_only_defined_is_flagged(self, tmp_path,
                                                      shape):
        # A lambda body runs when it is called, like a nested def's: the
        # charge it holds does not pay for the fetch in place.
        code = self.DEFERRED_CHARGE
        if shape == "def":
            code = code.replace(
                "        later = lambda: self.machine.cpu.charge(\"page_read\")\n",
                "\n"
                "        def later():\n"
                "            self.machine.cpu.charge(\"page_read\")\n"
                "\n",
            )
        findings = _lint_snippet(tmp_path, code, self.RULE)
        assert [f.message.split()[0] for f in findings] == ["Reader.lookup"]

    ONE_STEP_PLAN = """\
class Reader:
    def __init__(self, machine, cache):
        self.machine = machine
        self.cache = cache
        self._install = machine.cpu.plan("cache", "page_install")

    def lookup(self, entry):
        self.cache.fetch(entry)
        self.machine.cpu.bill(self._install)
        return entry
"""

    def test_a_billed_one_step_plan_pays_for_the_path(self, tmp_path):
        assert not _lint_snippet(tmp_path, self.ONE_STEP_PLAN, self.RULE)

    def test_the_path_without_its_one_step_bill_is_flagged(self, tmp_path):
        unbilled = self.ONE_STEP_PLAN.replace(
            "        self.machine.cpu.bill(self._install)\n", "")
        findings = _lint_snippet(tmp_path, unbilled, self.RULE)
        assert [f.message.split()[0] for f in findings] == ["Reader.lookup"]

    def test_a_return_inside_try_pays_in_its_finally(self, tmp_path):
        code = """\
class Reader:
    def __init__(self, machine, cache):
        self.machine = machine
        self.cache = cache

    def lookup(self, entry):
        try:
            self.cache.fetch(entry)
            return entry
        finally:
            self.machine.cpu.charge("page_read")
"""
        assert not _lint_snippet(tmp_path, code, self.RULE)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

DETERMINISM_POSITIVE = """\
import time


def stamp():
    return time.time()
"""

CONCURRENCY_POSITIVE = """\
from concurrent.futures import ThreadPoolExecutor


def dispatch(jobs):
    with ThreadPoolExecutor() as pool:
        return list(pool.map(lambda job: job(), jobs))
"""


class TestDeterminism:
    RULE = "determinism"

    def test_wall_clock_read_is_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, DETERMINISM_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "time.time" in findings[0].message
        assert findings[0].line == 5

    def test_suppression_silences(self, tmp_path):
        suppressed = DETERMINISM_POSITIVE.replace(
            "return time.time()",
            "return time.time()  # repro: ignore[determinism]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_virtual_clock_is_clean(self, tmp_path):
        clean = """\
def stamp(machine):
    return machine.clock.now
"""
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    @pytest.mark.parametrize("code,fragment", [
        ("from time import perf_counter\n", "from time import"),
        ("import datetime\n\n\ndef f():\n"
         "    return datetime.datetime.now()\n", "now"),
        ("from datetime import datetime\n\n\ndef f():\n"
         "    return datetime.utcnow()\n", "utcnow"),
        ("import random\n\n\ndef f():\n"
         "    return random.randint(0, 1)\n", "random.randint"),
        ("from random import Random\n\n\ndef f():\n"
         "    return Random()\n", "unseeded"),
    ])
    def test_banned_forms(self, tmp_path, code, fragment):
        findings = _lint_snippet(tmp_path, code, self.RULE)
        assert findings, code
        assert fragment in findings[0].message

    def test_seeded_random_is_clean(self, tmp_path):
        clean = """\
from random import Random


def make_rng(seed):
    return Random(seed)
"""
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    def test_bench_directory_is_exempt(self, tmp_path):
        bench = tmp_path / "repro" / "bench"
        bench.mkdir(parents=True)
        (bench / "timing.py").write_text(DETERMINISM_POSITIVE)
        findings = [
            f for f in lint_paths([str(tmp_path)])
            if f.rule == self.RULE
        ]
        assert not findings

    # Host concurrency: OS scheduling must not be able to order charges.

    @pytest.mark.parametrize("code,fragment", [
        (CONCURRENCY_POSITIVE, "from concurrent.futures import"),
        ("import threading\n", "import threading"),
        ("import concurrent.futures as cf\n", "import concurrent.futures"),
        ("from multiprocessing import Pool\n", "from multiprocessing"),
        ("import asyncio\n", "import asyncio"),
    ])
    def test_host_concurrency_import_is_flagged(self, tmp_path, code,
                                                fragment):
        findings = _lint_snippet(tmp_path, code, self.RULE)
        assert len(findings) == 1, code
        assert fragment in findings[0].message
        assert findings[0].line == 1

    def test_host_concurrency_suppression_silences(self, tmp_path):
        suppressed = CONCURRENCY_POSITIVE.replace(
            "import ThreadPoolExecutor",
            "import ThreadPoolExecutor  # repro: ignore[determinism]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_sequential_dispatch_and_relative_imports_are_clean(
            self, tmp_path):
        clean = """\
from .threading import helper


def dispatch(shards):
    return [helper(shard) for shard in shards]
"""
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    def test_host_concurrency_in_bench_is_exempt(self, tmp_path):
        bench = tmp_path / "repro" / "bench"
        bench.mkdir(parents=True)
        (bench / "pool.py").write_text(CONCURRENCY_POSITIVE)
        assert not [
            f for f in lint_paths([str(tmp_path)])
            if f.rule == self.RULE
        ]


# ---------------------------------------------------------------------------
# slots-dataclass
# ---------------------------------------------------------------------------

SLOTS_POSITIVE = """\
from dataclasses import dataclass


@dataclass
class HotRecord:
    key: bytes
    value: bytes
"""


class TestSlotsDataclass:
    RULE = "slots-dataclass"

    def test_missing_slots_is_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, SLOTS_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "HotRecord" in findings[0].message

    def test_suppression_silences(self, tmp_path):
        suppressed = SLOTS_POSITIVE.replace(
            "class HotRecord:",
            "class HotRecord:  # repro: ignore[slots-dataclass]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_slots_kwarg_is_clean(self, tmp_path):
        clean = SLOTS_POSITIVE.replace(
            "@dataclass", "@dataclass(slots=True)"
        )
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    def test_explicit_slots_assignment_is_clean(self, tmp_path):
        clean = SLOTS_POSITIVE.replace(
            "    key: bytes\n",
            "    __slots__ = (\"key\", \"value\")\n    key: bytes\n",
        )
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    def test_subclasses_are_skipped(self, tmp_path):
        # Slots + inheritance interact badly; the rule leaves subclasses
        # to human judgement.
        code = SLOTS_POSITIVE.replace(
            "class HotRecord:", "class HotRecord(Base):"
        )
        assert not _lint_snippet(tmp_path, code, self.RULE)


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------

MUTABLE_POSITIVE = """\
def collect(item, bucket=[]):
    bucket.append(item)
    return bucket
"""


class TestMutableDefault:
    RULE = "mutable-default"

    def test_list_default_is_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, MUTABLE_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "collect" in findings[0].message

    def test_suppression_silences(self, tmp_path):
        suppressed = MUTABLE_POSITIVE.replace(
            "def collect(item, bucket=[]):",
            "def collect(item, bucket=[]):  # repro: ignore[mutable-default]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_none_default_is_clean(self, tmp_path):
        clean = """\
def collect(item, bucket=None):
    bucket = bucket if bucket is not None else []
    bucket.append(item)
    return bucket
"""
        assert not _lint_snippet(tmp_path, clean, self.RULE)

    @pytest.mark.parametrize("default", ["{}", "set()", "dict()", "list()"])
    def test_other_mutable_defaults(self, tmp_path, default):
        code = f"def f(x={default}):\n    return x\n"
        assert _lint_snippet(tmp_path, code, self.RULE)

    def test_frozen_defaults_are_clean(self, tmp_path):
        code = "def f(x=(), y=0, z=\"s\", w=frozenset()):\n    return x\n"
        assert not _lint_snippet(tmp_path, code, self.RULE)


# ---------------------------------------------------------------------------
# observability hooks as domain touch verbs
# ---------------------------------------------------------------------------

SPAN_TOUCH_POSITIVE = """\
class Engine:
    def __init__(self, machine):
        self.machine = machine
        self.values = {}

    def lookup(self, key):
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.get", "engine")
        try:
            return self.values.get(key)
        finally:
            if tracer is not None:
                tracer.close_span()
"""

OBSERVE_TOUCH_POSITIVE = """\
class Store:
    def __init__(self, machine):
        self.machine = machine
        self.latencies = machine.op_latencies

    def record(self, value):
        self.latencies.observe(value)
        return value
"""


class TestObservabilityTouchVerbs:
    """``open_span`` / ``observe`` count as domain touches: a method
    worth a span or a hot-path metric must also charge its cost, on the
    traced path of a guarded span site too."""

    RULE = "cost-accounting"

    def test_span_without_charge_is_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, SPAN_TOUCH_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "Engine.lookup" in findings[0].message

    def test_span_with_charge_is_clean(self, tmp_path):
        charged = SPAN_TOUCH_POSITIVE.replace(
            "            return self.values.get(key)",
            "            self.machine.cpu.charge(\"lookup\", "
            "category=\"engine\")\n"
            "            return self.values.get(key)",
        )
        assert not _lint_snippet(tmp_path, charged, self.RULE)

    def test_span_suppression_silences(self, tmp_path):
        suppressed = SPAN_TOUCH_POSITIVE.replace(
            "def lookup(self, key):",
            "def lookup(self, key):  # repro: ignore[cost-accounting]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_observe_without_charge_is_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, OBSERVE_TOUCH_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "Store.record" in findings[0].message

    def test_observe_with_charge_is_clean(self, tmp_path):
        charged = OBSERVE_TOUCH_POSITIVE.replace(
            "        self.latencies.observe(value)",
            "        self.machine.cpu.charge(\"observe\", "
            "category=\"metrics\")\n"
            "        self.latencies.observe(value)",
        )
        assert not _lint_snippet(tmp_path, charged, self.RULE)


COMMIT_ENQUEUE_POSITIVE = """\
class Committer:
    def __init__(self, machine, pipeline):
        self.machine = machine
        self.pipeline = pipeline

    def commit(self, txn):
        return self.pipeline.enqueue_epoch(len(txn))
"""

COMMIT_RESOLVE_POSITIVE = """\
class AckLoop:
    def __init__(self, machine, pipeline):
        self.machine = machine
        self.pipeline = pipeline

    def drain(self):
        self.pipeline.ack()
        self.pipeline.resolve_future()
"""


class TestCommitPipelineTouchVerbs:
    """``enqueue_epoch`` / ``ack`` / ``resolve_future`` count as domain
    touches: commit-path work on the durable log must charge its cost."""

    RULE = "cost-accounting"

    def test_enqueue_epoch_without_charge_is_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, COMMIT_ENQUEUE_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "Committer.commit" in findings[0].message

    def test_enqueue_epoch_with_charge_is_clean(self, tmp_path):
        charged = COMMIT_ENQUEUE_POSITIVE.replace(
            "        return self.pipeline.enqueue_epoch(len(txn))",
            "        self.machine.cpu.charge(\"commit\", "
            "category=\"tc\")\n"
            "        return self.pipeline.enqueue_epoch(len(txn))",
        )
        assert not _lint_snippet(tmp_path, charged, self.RULE)

    def test_enqueue_epoch_suppression_silences(self, tmp_path):
        suppressed = COMMIT_ENQUEUE_POSITIVE.replace(
            "def commit(self, txn):",
            "def commit(self, txn):  # repro: ignore[cost-accounting]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_ack_and_resolve_without_charge_are_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, COMMIT_RESOLVE_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "AckLoop.drain" in findings[0].message

    def test_ack_and_resolve_with_charge_are_clean(self, tmp_path):
        charged = COMMIT_RESOLVE_POSITIVE.replace(
            "        self.pipeline.ack()",
            "        self.machine.cpu.charge(\"ack\", "
            "category=\"commit_pipeline\")\n"
            "        self.pipeline.ack()",
        )
        assert not _lint_snippet(tmp_path, charged, self.RULE)


RECORD_APPEND_POSITIVE = """\
class FastPath:
    def __init__(self, machine, records):
        self.machine = machine
        self.records = records

    def post(self, key, value):
        return self.records.append_record(key, value, dirty=True)
"""

RECORD_GC_POSITIVE = """\
class Collector:
    def __init__(self, machine, records):
        self.machine = machine
        self.records = records

    def reclaim(self, key, record):
        self.records.seal_arena()
        self.records.relocate(key, record)
"""


class TestRecordCacheTouchVerbs:
    """``append_record`` / ``relocate`` / ``seal_arena`` count as domain
    touches: record-heap mutations on the MM hot path must charge."""

    RULE = "cost-accounting"

    def test_append_record_without_charge_is_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, RECORD_APPEND_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "FastPath.post" in findings[0].message

    def test_append_record_with_charge_is_clean(self, tmp_path):
        charged = RECORD_APPEND_POSITIVE.replace(
            "        return self.records.append_record(key, value, "
            "dirty=True)",
            "        self.machine.cpu.charge(\"install_cas\", "
            "category=\"tc_record_cache\")\n"
            "        return self.records.append_record(key, value, "
            "dirty=True)",
        )
        assert not _lint_snippet(tmp_path, charged, self.RULE)

    def test_append_record_suppression_silences(self, tmp_path):
        suppressed = RECORD_APPEND_POSITIVE.replace(
            "def post(self, key, value):",
            "def post(self, key, value):  # repro: ignore[cost-accounting]",
        )
        assert not _lint_snippet(tmp_path, suppressed, self.RULE)

    def test_relocate_and_seal_without_charge_are_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, RECORD_GC_POSITIVE, self.RULE)
        assert len(findings) == 1
        assert "Collector.reclaim" in findings[0].message

    def test_relocate_and_seal_with_charge_are_clean(self, tmp_path):
        charged = RECORD_GC_POSITIVE.replace(
            "        self.records.seal_arena()",
            "        self.machine.cpu.charge(\"install_cas\", "
            "category=\"tc_record_cache\")\n"
            "        self.records.seal_arena()",
        )
        assert not _lint_snippet(tmp_path, charged, self.RULE)
