"""The exactness contract: traced costs reconcile with ``stats()``.

Core-seconds and device I/Os must match *bit-for-bit* (both sides are
scalar differences against an attach-time baseline of exactly zero);
per-span windows partition the totals at fsum tolerance.  Pinned here
on real YCSB replays (single engine and a 4-shard fleet), on the cheap
default tracer, and as a hypothesis property over random op sequences.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deuteronomy.engine import DeuteronomyEngine
from repro.deuteronomy.tc import TcConfig
from repro.hardware.machine import Machine
from repro.observability.spans import SPAN_NAMES, Span, Tracer
from repro.observability.trace_cli import (
    FSUM_REL_TOL,
    run_traced,
    verify_reconciliation,
)
from repro.scenarios import Scenario


def _spans(tracer: Tracer):
    def walk(span: Span):
        yield span
        for child in span.children:
            yield from walk(child)

    for root in tracer.roots:
        yield from walk(root)


@pytest.mark.parametrize(
    "mix,shards,batch",
    [("a", 0, 0), ("b", 0, 8), ("c", 0, 0), ("a", 4, 16)],
    # Engine count in the id: shards=0 is the one bare engine.
    ids=["a-1-0", "b-1-8", "c-1-0", "a-4-16"],
)
def test_traced_replay_reconciles_exactly(mix, shards, batch):
    tracers, stats, metrics = run_traced(Scenario(
        seed=11, mix=mix, record_count=64, op_count=160,
        shards=shards, batch_size=batch))
    summary = verify_reconciliation(tracers, stats)
    assert summary["core_seconds_exact"] is True
    assert summary["ssd_ios_exact"] is True

    target = stats["fleet"] if "fleet" in stats else stats
    traced_core = [t.total_core_seconds() for t in tracers]
    traced = sum(traced_core) if "fleet" in stats else traced_core[0]
    assert traced == target["core_seconds"]  # bit-identical, not approx
    assert sum(t.traced_ssd_ios() for t in tracers) == target["ssd_ios"]

    names = {span.name for t in tracers for span in _spans(t)}
    assert names, "traced replay emitted no spans"
    assert names <= SPAN_NAMES  # docs cite this closed set

    # The STATS window opens as accounting resets, so it covers the
    # traced run exactly; every measured op lands in the latency spread.
    window = metrics["stats"]
    assert window["core_seconds"] == target["core_seconds"]
    assert window["ssd_ios"] == target["ssd_ios"]
    assert metrics["latency_us"]["count"] == 160


def test_default_mode_tracer_reconciles_too():
    machine = Machine.paper_default(cores=2)
    engine = DeuteronomyEngine(
        machine, tc_config=TcConfig(sync_commit=True))
    engine.dc.bulk_load(
        [(b"k%03d" % index, b"v" * 16) for index in range(32)])
    machine.reset_accounting()
    tracer = Tracer(machine)  # default: flat event log, no charge sink
    machine.attach_tracer(tracer)
    assert machine.cpu.sink is None

    for index in range(80):
        key = b"k%03d" % (index % 32)
        if index % 3:
            engine.get(key)
        else:
            engine.put(key, b"w" * 16)

    stats = engine.stats()
    verify_reconciliation([tracer], stats)
    assert tracer.total_core_seconds() == stats["core_seconds"]
    assert tracer.traced_ssd_ios() == stats["ssd_ios"]
    assert math.isclose(
        tracer.span_cpu_us(), tracer.root_cpu_us(),
        rel_tol=FSUM_REL_TOL, abs_tol=1e-9)
    # Engine facade spans cover all charged work: nothing unattributed.
    assert abs(tracer.unattributed_us()) <= \
        tracer.total_us * FSUM_REL_TOL + 1e-9


def test_fleet_tracers_attach_per_shard_machine():
    tracers, stats, __ = run_traced(Scenario(
        seed=3, mix="a", record_count=48, op_count=96,
        shards=3, batch_size=12))
    assert len(tracers) == 3
    machines = {id(t.machine) for t in tracers}
    assert len(machines) == 3
    per_shard = stats["per_shard"]
    for tracer, shard_stats in zip(tracers, per_shard):
        assert tracer.total_core_seconds() == \
            shard_stats["core_seconds"]
        assert tracer.traced_ssd_ios() == shard_stats["ssd_ios"]


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 15)),
        min_size=1, max_size=40,
    )
)
def test_random_op_traces_reconcile(ops):
    """Property: any op sequence leaves the tracer and stats() agreeing."""
    machine = Machine.paper_default(cores=1)
    engine = DeuteronomyEngine(
        machine, tc_config=TcConfig(sync_commit=True))
    engine.dc.bulk_load(
        [(b"k%02d" % index, b"v" * 8) for index in range(16)])
    machine.reset_accounting()
    tracer = Tracer(machine, detailed=True)
    machine.attach_tracer(tracer)

    for is_read, index in ops:
        key = b"k%02d" % index
        if is_read:
            engine.get(key)
        else:
            engine.put(key, b"w" * 8)

    stats = engine.stats()
    verify_reconciliation([tracer], stats)
    assert tracer.total_core_seconds() == stats["core_seconds"]
    assert len(tracer.roots) == len(ops)
