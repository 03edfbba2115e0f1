"""Unit tests for trace spans: both tracer modes, exact attribution.

The default tracer records scalar snapshots in a flat event log and
materializes the span tree lazily; the detailed tracer builds the tree
live and buckets every CPU charge by category.  Both must attribute the
same machine accounting — these tests drive the hardware models
directly so every expected number is known in closed form.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import json
import os

import pytest

import repro
from repro.analysis.runner import collect_python_files, load_sources
from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig, TransactionAborted
from repro.faults import CrashError, FaultInjector, FaultPlan
from repro.hardware.machine import Machine
from repro.observability.spans import (
    _ENTER_WIDTH,
    _EXIT_WIDTH,
    COMPONENT_OF_CATEGORY,
    SPAN_NAMES,
    Span,
    Tracer,
    export_json,
)

from ..frames import count_calls


def spend(machine: Machine, microseconds: float, category: str) -> None:
    """Charge exactly ``microseconds`` to ``category``: a context switch
    is priced at one core-microsecond."""
    assert machine.cpu.costs.context_switch == 1.0
    machine.cpu.charge("context_switch", microseconds, category)


def _attach(machine: Machine, detailed: bool = False) -> Tracer:
    machine.reset_accounting()
    tracer = Tracer(machine, detailed=detailed)
    machine.attach_tracer(tracer)
    return tracer


@contextlib.contextmanager
def span_site(machine: Machine, name: str, component: str):
    """One span site, in the guarded form every instrumented method uses."""
    tracer = machine.tracer
    if tracer is not None:
        tracer.open_span(name, component)
    try:
        yield
    finally:
        if tracer is not None:
            tracer.close_span()


class TestUntraced:
    def test_an_untraced_op_opens_no_span(self, machine):
        engine = DeuteronomyEngine(machine)
        engine.put(b"k", b"v")
        calls = count_calls(lambda: engine.get(b"k"))
        assert calls["engine.get"] == 1
        assert not {"spans.open_span", "spans.close_span"} & set(calls)

    def test_detach_restores_noop_and_clears_sink(self, machine):
        tracer = _attach(machine, detailed=True)
        assert machine.cpu.sink is tracer
        machine.detach_tracer()
        assert machine.tracer is None
        assert machine.cpu.sink is None
        with span_site(machine, "engine.get", "engine"):
            pass
        assert tracer.roots == []


class TestDefaultMode:
    def test_nested_attribution_from_the_flat_log(self, machine):
        tracer = _attach(machine)
        assert machine.cpu.sink is None  # default mode pays no per-charge
        with span_site(machine, "engine.get", "engine"):
            spend(machine, 2.0, "tc")
            with span_site(machine, "bwtree.get", "bwtree"):
                spend(machine, 3.0, "bwtree")
                machine.ssd.read(4096)
            spend(machine, 1.0, "tc")

        roots = tracer.roots
        assert len(roots) == 1
        root = roots[0]
        assert (root.name, root.component) == ("engine.get", "engine")
        assert len(root.children) == 1
        child = root.children[0]
        assert (child.name, child.component) == ("bwtree.get", "bwtree")

        assert root.subtree_cpu_us == 6.0
        assert child.subtree_cpu_us == 3.0
        assert root.self_cpu_us() == 3.0
        assert child.self_cpu_us() == 3.0
        assert (root.ssd_ios, child.ssd_ios) == (1, 1)
        assert root.self_ssd_ios() == 0
        assert child.service_us > 0.0
        assert root.service_us == child.service_us
        assert root.begin_s <= child.begin_s <= child.end_s <= root.end_s

    def test_rematerializes_when_more_spans_arrive(self, machine):
        tracer = _attach(machine)
        with span_site(machine, "engine.get", "engine"):
            spend(machine, 1.0, "bwtree")
        assert len(tracer.roots) == 1
        with span_site(machine, "engine.put", "engine"):
            spend(machine, 2.0, "bwtree")
        assert [root.name for root in tracer.roots] == [
            "engine.get", "engine.put",
        ]
        # Cached until the log grows again.
        assert tracer.roots is tracer.roots

    def test_the_flat_log_holds_no_gc_tracked_object(self, machine):
        """No per-span object survives the hot path: the log holds only
        interned names and scalars, nothing the collector tracks."""
        tracer = _attach(machine)
        for __ in range(3):
            with span_site(machine, "engine.get", "engine"):
                with span_site(machine, "bwtree.get", "bwtree"):
                    spend(machine, 1.0, "bwtree")
        assert len(tracer._events) == 6 * (_ENTER_WIDTH + _EXIT_WIDTH)
        assert not any(gc.is_tracked(item) for item in tracer._events)
        assert tracer._stack == []

    def test_span_notes_survive_materialization(self, machine):
        # Span sites carry no notes: the materialized span's notes (and
        # so the exported ``notes`` field) is an empty dict, not None.
        tracer = _attach(machine)
        with span_site(machine, "engine.get", "engine"):
            pass
        assert tracer.roots[0].notes == {}
        assert tracer.roots[0].to_dict()["notes"] == {}

    def test_no_category_buckets_in_default_mode(self, machine):
        tracer = _attach(machine)
        with span_site(machine, "engine.get", "engine"):
            spend(machine, 5.0, "bwtree")
        assert tracer.roots[0].cpu_us == {}
        assert tracer.unattributed == {}


class TestDetailedMode:
    def test_per_span_category_buckets(self, machine):
        tracer = _attach(machine, detailed=True)
        assert machine.cpu.sink is tracer
        spend(machine, 0.5, "router")  # before any span opens
        with span_site(machine, "engine.get", "engine"):
            spend(machine, 2.0, "tc")
            with span_site(machine, "bwtree.get", "bwtree"):
                spend(machine, 3.0, "bwtree")
            spend(machine, 1.0, "tc_mvcc")
        root = tracer.roots[0]
        assert root.cpu_us == {"tc": 2.0, "tc_mvcc": 1.0}
        assert root.children[0].cpu_us == {"bwtree": 3.0}
        assert tracer.unattributed == {"router": 0.5}
        assert tracer.unattributed_us() == pytest.approx(0.5)

    def test_stack_corruption_is_an_assertion(self):
        # A close with no open span: the detailed mode refuses it at
        # once, the default mode when the log is materialized.
        for detailed in (True, False):
            tracer = _attach(Machine.paper_default(cores=2), detailed)
            tracer.open_span("engine.get", "engine")
            tracer.close_span()
            with pytest.raises(AssertionError,
                               match="span stack corruption"):
                tracer.close_span()
                tracer.roots

    def test_note_after_open(self, machine):
        tracer = _attach(machine, detailed=True)
        tracer.open_span("page_cache.fetch", "page_cache")
        span = tracer.roots[0]
        assert isinstance(span, Span)
        span.note("outcome", "miss")
        tracer.close_span()
        assert tracer.roots[0].notes == {"outcome": "miss"}


def _assert_balanced(tracer: Tracer) -> list:
    """Every open span was closed: the detailed stack is empty, and the
    default log's enter/exit records pair up without a close ever
    outrunning its opens.  Returns the (materialized) roots."""
    if tracer.detailed:
        assert tracer._stack == []
    else:
        events = tracer._events
        depth = index = 0
        while index < len(events):
            if events[index] is None:
                depth -= 1
                assert depth >= 0
                index += _EXIT_WIDTH
            else:
                depth += 1
                index += _ENTER_WIDTH
        assert depth == 0
    return tracer.roots


def _path(span: Span) -> list:
    """Names from ``span`` down its last-opened children."""
    names = [span.name]
    while span.children:
        span = span.children[-1]
        names.append(span.name)
    return names


def _loaded_engine(tc_config: TcConfig | None = None,
                   tree_config: BwTreeConfig | None = None):
    engine = DeuteronomyEngine(Machine.paper_default(cores=2),
                               tree_config, tc_config)
    for index in range(120):
        engine.dc.upsert(b"key%04d" % index, b"v" * 40)
    engine.dc.checkpoint()
    engine.dc.cache.ensure_capacity()
    return engine


class TestExceptionBalance:
    """An op that raises inside open spans closes every one of them, in
    both modes, so the next op's spans are roots again."""

    @pytest.mark.parametrize("detailed", [False, True])
    def test_a_write_write_conflict(self, detailed):
        engine = _loaded_engine()
        tracer = _attach(engine.machine, detailed)
        txn = engine.tc.begin()
        engine.tc.write(txn, b"key0001", b"mine")
        engine.put(b"key0001", b"theirs")
        with pytest.raises(TransactionAborted):
            engine.tc.commit(txn)
        engine.get(b"key0002")
        roots = _assert_balanced(tracer)
        assert [root.name for root in roots] == [
            "engine.put", "tc.commit", "engine.get"]

    @pytest.mark.parametrize("detailed", [False, True])
    @pytest.mark.parametrize("site", [
        "recovery_log.flush", "recovery_log.flush.after_write"])
    def test_a_crash_inside_the_log_flush(self, detailed, site):
        engine = _loaded_engine(TcConfig(sync_commit=True))
        tracer = _attach(engine.machine, detailed)
        engine.apply_batch([("put", b"key0001", b"first")])
        engine.machine.faults = FaultInjector(FaultPlan.crash_at(site, 1))
        with pytest.raises(CrashError):
            engine.apply_batch([("get", b"key0002", None),
                                ("put", b"key0003", b"lost")])
        roots = _assert_balanced(tracer)
        assert len(roots) == 2
        assert _path(roots[-1]) == [
            "engine.apply_batch", "tc.commit_batch", "recovery_log.flush"]

    @pytest.mark.parametrize("detailed", [False, True])
    def test_a_raise_inside_a_page_fetch(self, detailed, monkeypatch):
        engine = _loaded_engine(tree_config=BwTreeConfig(
            max_page_bytes=512, cache_capacity_bytes=4096,
            segment_bytes=1 << 14))
        evicted = next(b"key%04d" % index for index in range(120)
                       if engine.dc._descend(b"key%04d" % index).state
                       is None)
        machine = engine.machine
        tracer = _attach(machine, detailed)
        # The device fails the fetch's flash read.
        def fail(*args, **kwargs):
            raise RuntimeError("device gone")

        monkeypatch.setattr(machine.ssd, "read", fail)
        with pytest.raises(RuntimeError, match="device gone"):
            engine.get(evicted)
        roots = _assert_balanced(tracer)
        assert len(roots) == 1
        assert _path(roots[0]) == [
            "engine.get", "tc.read", "bwtree.get", "page_cache.fetch",
            "log_store.read"]

    @pytest.mark.parametrize("detailed", [False, True])
    def test_a_tracer_attached_or_detached_between_ops(self, detailed):
        engine = _loaded_engine()
        machine = engine.machine
        engine.put(b"key0001", b"untraced")
        tracer = _attach(machine, detailed)
        engine.get(b"key0001")
        machine.detach_tracer()
        engine.put(b"key0002", b"untraced")
        machine.attach_tracer(tracer)
        engine.apply_batch([("get", b"key0002", None)])
        roots = _assert_balanced(tracer)
        assert [root.name for root in roots] == [
            "engine.get", "engine.apply_batch"]
        assert _path(roots[1]) == [
            "engine.apply_batch", "tc.commit_batch"]


class TestReconciliationViews:
    def test_totals_match_machine_counters_bitwise(self, machine):
        tracer = _attach(machine)
        with span_site(machine, "engine.get", "engine"):
            spend(machine, 2.5, "tc")
            spend(machine, 1.5, "tc_log")
        spend(machine, 0.5, "router")  # outside every span
        assert tracer.totals() == {
            "tc": 2.5, "tc_log": 1.5, "router": 0.5,
        }
        assert tracer.total_us == machine.cpu.busy_us
        assert tracer.total_core_seconds() == \
            machine.summary().cpu_busy_seconds
        assert tracer.unattributed_us() == pytest.approx(0.5)

    def test_cpu_us_by_component_uses_the_category_map(self, machine):
        tracer = _attach(machine)
        spend(machine, 1.0, "tc_log")
        spend(machine, 2.0, "tc_mvcc")
        spend(machine, 4.0, "unknown_category")
        grouped = tracer.cpu_us_by_component()
        assert grouped == {
            "recovery_log": 1.0, "tc": 2.0, "unknown_category": 4.0,
        }
        assert COMPONENT_OF_CATEGORY["tc_log"] == "recovery_log"

    def test_ssd_ios_by_component_reports_unattributed(self, machine):
        tracer = _attach(machine)
        with span_site(machine, "log_store.read", "log_store"):
            machine.ssd.read(4096)
        machine.ssd.write(4096)  # no span open
        assert tracer.traced_ssd_ios() == 2
        assert tracer.ssd_ios_by_component() == {
            "log_store": 1, "unattributed": 1,
        }

    def test_attach_baseline_excludes_prior_work(self, machine):
        spend(machine, 100.0, "bwtree")
        machine.ssd.read(4096)
        tracer = Tracer(machine)  # attached without a reset
        machine.attach_tracer(tracer)
        spend(machine, 3.0, "bwtree")
        assert tracer.total_us == 3.0
        assert tracer.traced_ssd_ios() == 0
        assert tracer.totals() == {"bwtree": 3.0}


class TestSpanNames:
    def test_known_names_are_dotted_component_verbs(self):
        assert SPAN_NAMES
        components = {name.split(".", 1)[0] for name in SPAN_NAMES}
        assert components == {
            "engine", "tc", "record_cache", "recovery_log",
            "commit_pipeline", "bwtree", "page_cache", "tier_cache",
            "log_store", "shard",
        }

    def test_every_known_name_is_opened_somewhere_in_src(self):
        """Each name is the literal of an ``open_span`` call in
        ``src/repro``, and each such literal is a known name: a retired
        entry point cannot leave its span name behind."""
        package = os.path.dirname(repro.__file__)
        opened = set()
        for source in load_sources(collect_python_files([package])):
            for node in ast.walk(source.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "open_span" and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    opened.add(node.args[0].value)
        assert opened == SPAN_NAMES


class TestExports:
    def _traced_machine(self) -> Machine:
        machine = Machine.paper_default(cores=2)
        tracer = _attach(machine, detailed=True)
        for index in range(3):
            with span_site(machine, "engine.get", "engine"):
                tracer.roots[-1].note("op", index)
                spend(machine, 1.0 + index, "bwtree")
        return machine

    def test_json_export_is_deterministic_and_caps_roots(self):
        machine = self._traced_machine()
        tracer = machine.tracer
        config = {"seed": 7}
        first = export_json([tracer], config)
        assert first == export_json([tracer], config)
        assert first.endswith("\n")
        doc = json.loads(first)
        assert doc["kind"] == "repro-trace"
        shard = doc["shards"][0]
        assert shard["roots_total"] == shard["roots_exported"] == 3
        assert shard["total_us"] == 6.0
        capped = json.loads(export_json([tracer], config, max_roots=1))
        capped_shard = capped["shards"][0]
        assert capped_shard["roots_exported"] == 1
        assert capped_shard["roots_total"] == 3
        # Totals still cover the whole run despite the cap.
        assert capped_shard["total_us"] == 6.0

    def test_span_to_dict(self):
        machine = self._traced_machine()
        root = machine.tracer.roots[0]
        as_dict = root.to_dict()
        assert as_dict["name"] == "engine.get"
        assert as_dict["self_cpu_us"] == as_dict["subtree_cpu_us"] == 1.0
        assert as_dict["children"] == []
