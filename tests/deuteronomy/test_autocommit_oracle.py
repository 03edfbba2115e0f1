"""The one-call autocommit read against the transaction choreography.

``reference_get`` keeps the retired ``DeuteronomyEngine.get`` verbatim —
``begin`` -> ``read`` -> ``commit``, ``abort`` on a failed read — so the
two can drive twin seeded engines side by side and be compared with
``==``, never ``approx``: every charge in order, every counter, both
clocks, the transaction ids, the version store and the span tree.
"""

import inspect
import random
import textwrap

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig, TransactionComponent
from repro.deuteronomy import tc as tc_module
from repro.faults import FaultInjector, FaultPlan, IoError
from repro.hardware import Machine
from repro.observability.spans import Tracer
from repro.observability.whatif import ChargeRecorder

from ..frames import count_calls


def reference_get(engine, key):
    """The retired ``DeuteronomyEngine.get`` (its span in today's
    guarded form)."""
    tracer = engine.machine.tracer
    if tracer is not None:
        tracer.open_span("engine.get", "engine")
    try:
        txn = engine.tc.begin()
        try:
            value = engine.tc.read(txn, key)
        except BaseException:
            engine.tc.abort(txn)
            raise
        engine.tc.commit(txn)
        return value
    finally:
        if tracer is not None:
            tracer.close_span()


class Tee:
    """Feeds every charge to the recorder and the detailed tracer."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def on_charge(self, category, microseconds):
        for sink in self.sinks:
            sink.on_charge(category, microseconds)


#: Each set-up drives a different slice of the read cascade: a FIFO read
#: cache, a log that drops buffers it still has versions for, and a page
#: cache small enough to miss, whose victims demote to a tier; then the
#: record heap in place of the read cache.
SETUPS = {
    "read_cache": (
        BwTreeConfig(max_page_bytes=512, cache_capacity_bytes=4096,
                     segment_bytes=1 << 14, demote_to_tiers=True),
        TcConfig(log_buffer_bytes=512, log_retain_budget_bytes=1024,
                 read_cache_bytes=512, version_gc_horizon_lag=1 << 20),
    ),
    "record_heap": (
        BwTreeConfig(max_page_bytes=512, cache_capacity_bytes=4096,
                     segment_bytes=1 << 14),
        TcConfig(log_buffer_bytes=512, log_retain_budget_bytes=1024,
                 record_cache=True, record_cache_bytes=1 << 14,
                 record_arena_bytes=1 << 11,
                 record_dirty_flush_bytes=1 << 12,
                 version_gc_horizon_lag=64),
    ),
}
KEYS = [b"key%04d" % index for index in range(120)]
MISSING = [b"gone%04d" % index for index in range(8)]


def build(setup, seed, faults):
    tree_config, tc_config = SETUPS[setup]
    engine = DeuteronomyEngine(Machine.paper_default(cores=2),
                               tree_config, tc_config)
    rng = random.Random(seed)
    for key in KEYS:
        engine.dc.upsert(key, bytes([rng.randrange(97, 123)]) * 40)
    engine.dc.checkpoint()
    engine.dc.cache.ensure_capacity()
    engine.machine.reset_accounting()
    if faults:
        engine.machine.faults = FaultInjector(FaultPlan.transient_noise(
            seed, 0.15, sites=("tier.promote",)))
    return engine


def script(seed):
    """Puts, deletes and gets over a hot set, the whole key space and
    keys never loaded, with an explicit transaction held open through
    the middle third (it pins the version-GC horizon)."""
    rng = random.Random(seed)
    steps = []
    for index in range(600):
        if index == 200:
            steps.append(("open",))
        elif index == 400:
            steps.append(("close",))
        roll = rng.random()
        if roll < 0.15:
            steps.append(("put", rng.choice(KEYS[:30]),
                          b"p%05d" % index * 4))
        elif roll < 0.18:
            steps.append(("delete", rng.choice(KEYS[:30])))
        elif roll < 0.25:
            steps.append(("get", rng.choice(MISSING)))
        elif roll < 0.60:
            steps.append(("get", rng.choice(KEYS[:30])))
        else:
            steps.append(("get", rng.choice(KEYS)))
    return steps


def observe(engine, key):
    """What a get of ``key`` may move, read without a charge, and
    whether the key's newest version has left the retained log."""
    tc = engine.tc
    heap = tc.records
    chain = tc.versions.chains.get(key)
    return {
        "aborts": tc.counters.get("tc.aborts"),
        "dc_reads": tc.counters.get("tc.dc_reads"),
        "dc_read_ios": tc.counters.get("tc.dc_read_ios"),
        "read_cache_hits": tc.read_cache.hits,
        "read_cache_probes": tc.read_cache.hits + tc.read_cache.misses,
        "record_hits": heap.hits if heap is not None else 0,
        "record_probes": heap.hits + heap.misses if heap is not None else 0,
        "promotions": engine.dc.cache.stats.promotions,
        "stale": bool(chain) and chain[0].lsn < tc.log.first_retained_lsn,
    }


def outcome(before, after, value):
    """Which step of the cascade served one get: a retained log record
    answers it before any cache is probed."""
    diff = {name: after[name] - before[name] for name in after}
    if diff["aborts"]:
        return "failed"
    if not (diff["read_cache_probes"] or diff["record_probes"]
            or diff["dc_reads"]):
        return "log_cache_hit"
    stale = "stale+" if before["stale"] else ""
    if diff["read_cache_hits"]:
        return stale + "read_cache_hit"
    if diff["record_hits"]:
        return stale + ("tombstone" if value is None else "record_hit")
    if value is None:
        return stale + "not_found"
    if diff["promotions"]:
        return stale + "promote"
    return stale + ("dc_io" if diff["dc_read_ios"] else "dc_no_io")


def drive(setup, seed, get, faults=False):
    """Run :func:`script` on a fresh engine with ``get`` as its reads;
    returns every observable the two read paths must agree on."""
    engine = build(setup, seed, faults)
    machine, tc = engine.machine, engine.tc
    tracer = Tracer(machine, detailed=True)
    machine.attach_tracer(tracer)
    recorder = ChargeRecorder()
    machine.cpu.sink = Tee(recorder, tracer)
    results, outcomes, held = [], [], None
    for step in script(seed):
        kind = step[0]
        if kind == "open":
            held = tc.begin()
            continue
        if kind == "close":
            tc.commit(held)
            continue
        before = observe(engine, step[1])
        try:
            if kind == "put":
                results.append(engine.put(step[1], step[2]))
            elif kind == "delete":
                results.append(engine.delete(step[1]))
            else:
                value = get(engine, step[1])
                results.append(value)
                outcomes.append(outcome(
                    before, observe(engine, step[1]), value))
        except IoError as error:
            results.append(("IoError", error.site, error.hit))
            if kind == "get":
                outcomes.append(outcome(
                    before, observe(engine, step[1]), None))
    observed = {
        "results": results,
        "charges": recorder.events,
        "cpu.counters": machine.cpu.counters.snapshot(),
        "tc.counters": tc.counters.snapshot(),
        "busy_us": machine.cpu.busy_us,
        "clock.now": machine.clock.now,
        "tc._clock": tc._clock,
        "_next_txn_id": tc._next_txn_id,
        "active": len(tc._active),
        "operations": machine.operations,
        "versions": tc.versions.version_count(),
        "spans": [root.to_dict() for root in tracer.roots],
        "stats": engine.stats(),
    }
    return observed, outcomes


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("setup, faults", [
    ("read_cache", False), ("read_cache", True), ("record_heap", False),
])
def test_get_bills_exactly_what_the_choreography_bills(setup, faults, seed):
    fused, outcomes = drive(setup, seed, DeuteronomyEngine.get, faults)
    reference, ref_outcomes = drive(setup, seed, reference_get, faults)
    assert outcomes == ref_outcomes
    assert len(fused["charges"]) > 5_000
    for name in fused:
        assert fused[name] == reference[name], name
    assert fused["active"] == 0


def test_every_read_outcome_is_driven():
    """The comparison above reaches every step of the cascade."""
    seen = set()
    for setup, faults in (("read_cache", False), ("read_cache", True),
                          ("record_heap", False)):
        for seed in (3, 11):
            seen.update(drive(setup, seed, DeuteronomyEngine.get, faults)[1])
    stale = {name.split("+")[0] for name in seen if "+" in name}
    assert {"log_cache_hit", "read_cache_hit", "promote", "record_hit",
            "tombstone", "dc_no_io", "dc_io", "not_found",
            "failed"} <= seen, seen
    assert stale, seen


def test_dropping_the_commit_timestamp_is_caught(monkeypatch):
    """Mutation check: ``get`` without its commit-time
    ``timestamp_alloc`` — the ``bill`` of the TC's one-step stamp plan —
    no longer matches the reference.  The charges are counted in the
    ``ChargeRecorder`` stream, which sees each step of a billed plan too
    (begin's ``timestamp_alloc`` is billed with its dispatch): the
    mutant's lacks one per get."""
    lines = textwrap.dedent(
        inspect.getsource(TransactionComponent.get)).splitlines()
    allocs = [index for index, line in enumerate(lines)
              if "bill(self._stamp)" in line]
    assert len(allocs) == 1          # commit's
    del lines[allocs[0]]
    namespace: dict = {}
    exec("\n".join(lines), vars(tc_module), namespace)
    monkeypatch.setattr(TransactionComponent, "get", namespace["get"])
    mutant, __ = drive("read_cache", 3, DeuteronomyEngine.get)
    reference, __ = drive("read_cache", 3, reference_get)
    assert mutant["results"] == reference["results"]
    stamp = ("tc", Machine.paper_default().cpu.costs.timestamp_alloc)
    gets = sum(step[0] == "get" for step in script(3))
    assert (reference["charges"].count(stamp)
            - mutant["charges"].count(stamp)) == gets
    assert mutant["busy_us"] < reference["busy_us"]


def test_a_read_cache_hit_builds_no_transaction():
    """Complexity guard as call counts: a read-cache-hit ``engine.get``
    never constructs a ``Transaction`` (its ``__post_init__``), enters
    ``begin``/``commit``/``_require_active``, or calls ``CounterSet.add``
    — and never reaches the Bw-tree."""
    engine = DeuteronomyEngine(Machine.paper_default(cores=1))
    engine.dc.upsert(b"k", b"v")
    assert engine.get(b"k") == b"v"          # fills the read cache
    hits = engine.tc.read_cache.hits
    calls = count_calls(lambda: engine.get(b"k"))
    assert engine.tc.read_cache.hits == hits + 1
    assert calls["tc.get"] == calls["tc._snapshot_read"] == 1
    forbidden = {"tc.__post_init__", "tc.begin", "tc.commit",
                 "tc._require_active", "tc.read", "tc._read_one",
                 "metrics.add", "tree.get_with_stats"}
    assert forbidden.isdisjoint(calls), forbidden & set(calls)
