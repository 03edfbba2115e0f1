"""Commit-future semantics under crashes in the async ack window.

The pipeline splits commit durability into submit -> ack -> resolve,
which opens two crash windows the synchronous path never had:

* crash **before the ack** (``commit_pipeline.flush.pre_ack``) — the
  buffer was submitted but never acknowledged: its futures stay
  unresolved and its records must be *absent* after recovery;
* crash **after the ack** (``commit_pipeline.flush.post_ack``) — the
  records are durable even though their futures never resolved: they
  must *survive* recovery.

A resolved future is a durability promise: its record must survive any
later crash.  The hypothesis property closes the loop: random epoch
boundaries (window/byte threshold) x every new fault site x random hit
still recover exactly onto the durable prefix.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine
from repro.deuteronomy.commit_pipeline import (
    SITE_EPOCH_OPEN,
    SITE_POST_ACK,
    SITE_PRE_ACK,
    CommitFuture,
)
from repro.deuteronomy.tc import TcConfig
from repro.faults import CrashError, FaultInjector, FaultPlan
from repro.faults.matrix import (
    GC_TARGET,
    TC_CONFIG,
    MatrixConfig,
    _durable_view,
    build_trace,
)
from repro.hardware import Machine

TREE = BwTreeConfig(segment_bytes=1 << 13, cache_capacity_bytes=20 << 10)

#: One commit per distinct key; small buffers/epochs so acks happen
#: early in the trace.
TC = TcConfig(commit_pipeline=True, log_buffer_bytes=2 << 10,
              commit_epoch_bytes=1 << 10)

Committed = Tuple[bytes, bytes, CommitFuture]


def _build_async_engine(injector: FaultInjector,
                        tc_config: TcConfig = TC) -> DeuteronomyEngine:
    machine = Machine.paper_default(cores=2)
    machine.faults = injector
    return DeuteronomyEngine(machine, tree_config=TREE,
                             tc_config=tc_config)


def _drive_distinct_puts(
        engine: DeuteronomyEngine, count: int = 400,
) -> Tuple[List[Committed], bool]:
    """Put ``count`` distinct keys, recording each commit's future.

    Returns the (key, value, future) list and whether a planned crash
    fired mid-trace.
    """
    committed: List[Committed] = []
    try:
        for index in range(count):
            key = b"fut%05d" % index
            value = b"v%05d" % index
            engine.put(key, value)
            future = engine.tc.last_commit_future
            assert future is not None
            committed.append((key, value, future))
    except CrashError:
        return committed, True
    return committed, False


def _crash_async_engine(
        site: str, hit: int,
) -> Optional[Tuple[DeuteronomyEngine, List[Committed]]]:
    injector = FaultInjector(FaultPlan.crash_at(site, hit))
    injector.disarm()
    engine = _build_async_engine(injector)
    engine.checkpoint()
    injector.arm()
    committed, crashed = _drive_distinct_puts(engine)
    injector.disarm()
    if not crashed:
        return None
    return engine, committed


class TestCrashBeforeAck:
    def test_unresolved_futures_records_absent_after_recovery(self):
        crash = _crash_async_engine(SITE_PRE_ACK, 1)
        assert crash is not None, "pre-ack site never reached"
        engine, committed = crash
        durable_lsn = engine.tc.log.durable_lsn
        unresolved = [entry for entry in committed
                      if not entry[2].resolved]
        assert unresolved, "pre-ack crash left no unresolved futures"
        recovered = DeuteronomyEngine.recover(engine)
        for key, __, future in unresolved:
            if future.lsn > durable_lsn:
                assert recovered.get(key) is None
        # The first-ever ack crashed before mark_durable: nothing at all
        # reached the durable log, so *every* put is rolled back.
        assert durable_lsn == 0
        assert all(recovered.get(key) is None for key, __, _f in committed)

    def test_pending_futures_never_resolve_after_crash(self):
        crash = _crash_async_engine(SITE_PRE_ACK, 1)
        assert crash is not None
        engine, committed = crash
        # Every recorded commit is still pending (the put that crashed
        # mid-ack may have enqueued one more future than we recorded).
        assert engine.tc.pipeline.pending_futures >= len(committed)
        assert engine.tc.pipeline.futures_resolved == 0
        assert not any(future.resolved for __, _v, future in committed)


class TestCrashAfterAck:
    def test_acked_records_survive_despite_unresolved_futures(self):
        crash = _crash_async_engine(SITE_POST_ACK, 1)
        assert crash is not None, "post-ack site never reached"
        engine, committed = crash
        durable_lsn = engine.tc.log.durable_lsn
        assert durable_lsn > 0   # mark_durable ran before the crash
        recovered = DeuteronomyEngine.recover(engine)
        durable_but_unresolved = [
            entry for entry in committed
            if entry[2].lsn <= durable_lsn and not entry[2].resolved
        ]
        assert durable_but_unresolved, \
            "post-ack crash should strand durable-but-unresolved futures"
        for key, value, __ in durable_but_unresolved:
            assert recovered.get(key) == value


class TestResolvedFutures:
    def test_resolved_future_record_survives_a_later_crash(self):
        crash = _crash_async_engine(SITE_PRE_ACK, 2)
        if crash is None:
            return   # trace never reached a second ack: vacuous
        engine, committed = crash
        resolved = [entry for entry in committed if entry[2].resolved]
        assert resolved, "second ack implies the first one resolved"
        recovered = DeuteronomyEngine.recover(engine)
        for key, value, __ in resolved:
            assert recovered.get(key) == value

    def test_drained_pipeline_resolves_everything_durably(self):
        injector = FaultInjector()
        injector.disarm()
        engine = _build_async_engine(injector)
        engine.checkpoint()   # recovery needs a live checkpoint image
        committed, crashed = _drive_distinct_puts(engine, count=100)
        assert not crashed
        engine.tc.sync_log()
        assert all(future.resolved for __, _v, future in committed)
        recovered = DeuteronomyEngine.recover(engine)
        for key, value, __ in committed:
            assert recovered.get(key) == value


# --- hypothesis: random epoch boundaries x new fault sites ---------------

ASYNC_SITES = st.sampled_from([SITE_EPOCH_OPEN, SITE_PRE_ACK,
                               SITE_POST_ACK])
SEEDS = st.integers(min_value=0, max_value=2**16)
HITS = st.integers(min_value=1, max_value=4)
INTERVALS_US = st.sampled_from([5.0, 20.0, 50.0, 200.0])
EPOCH_BYTES = st.sampled_from([256, 1024, 4096, 1 << 16])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=SEEDS, site=ASYNC_SITES, hit=HITS,
       interval_us=INTERVALS_US, epoch_bytes=EPOCH_BYTES)
def test_random_epoch_boundaries_recover_to_durable_prefix(
        seed, site, hit, interval_us, epoch_bytes):
    """Any (epoch shape, async crash site, hit) recovers exactly onto
    the durable prefix of the seeded trace."""
    config = MatrixConfig(
        seed=seed, ops=150, records=48, checkpoint_every=40,
        gc_every=80, max_hits_per_site=1,
    )
    baseline, ops = build_trace(config)
    tc_config = TcConfig(
        commit_pipeline=True,
        commit_interval_us=interval_us,
        commit_epoch_bytes=epoch_bytes,
        log_buffer_bytes=TC_CONFIG.log_buffer_bytes,
    )
    injector = FaultInjector(FaultPlan.crash_at(site, hit))
    injector.disarm()
    engine = _build_async_engine(injector, tc_config)
    engine.dc.bulk_load(sorted(baseline.items()))
    engine.checkpoint()
    injector.arm()
    crashed = False
    try:
        for index, (kind, key, value) in enumerate(ops, start=1):
            if kind == "get":
                engine.get(key)
            elif kind == "put":
                engine.put(key, value)
            else:
                engine.delete(key)
            if index % config.checkpoint_every == 0:
                engine.checkpoint()
            if index % config.gc_every == 0:
                engine.collect_garbage(GC_TARGET)
    except CrashError:
        crashed = True
    injector.disarm()
    if not crashed:
        return   # (site, hit) unreachable with this epoch shape: vacuous
    expected = _durable_view([engine], baseline)
    recovered = DeuteronomyEngine.recover(engine)
    for key in sorted(set(baseline) | set(expected)):
        assert recovered.get(key) == expected.get(key)
