"""Crash-matrix runner + the pinned checkpoint crash-ordering bugs."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.faults import CrashError, FaultInjector, FaultPlan
from repro.faults.matrix import (
    MatrixConfig,
    _durable_view,
    _sample_hits,
    build_trace,
    main,
    run_case,
    run_exhausted_case,
    run_matrix,
)
from repro.hardware import Machine
from repro.storage import CheckpointManager


def make_engine(seed_faults: FaultInjector = None) -> DeuteronomyEngine:
    machine = Machine.paper_default(cores=1)
    machine.faults = seed_faults
    return DeuteronomyEngine(
        machine,
        BwTreeConfig(segment_bytes=1 << 13),
        TcConfig(log_buffer_bytes=1 << 12),
    )


def live_checkpoint_images(store) -> list:
    images = []
    for segment_id in store.flushed_segment_ids:
        for addr, image in store.live_images(segment_id):
            if getattr(image, "kind", None) == "checkpoint":
                images.append(addr)
    return images


class TestCheckpointCrashOrdering:
    """The two bugs this PR fixes, pinned at the exact crash windows.

    Pre-fix, ``write_checkpoint`` invalidated the previous image before
    flushing the new one (crash between → zero live checkpoints), and
    ``find_latest`` raised on finding two live images (the legitimate
    after-flush-before-invalidate window).
    """

    def test_crash_between_append_and_flush_keeps_old_checkpoint(self):
        # Disarmed hits are not counted, so the armed second checkpoint
        # is hit index 1.
        injector = FaultInjector(
            FaultPlan.crash_at("checkpoint.write.after_append", 1))
        injector.disarm()
        engine = make_engine(injector)
        for index in range(60):
            engine.put(b"key%03d" % index, b"old%d" % index)
        engine.checkpoint()               # first checkpoint, disarmed
        injector.arm()
        for index in range(60):
            engine.put(b"key%03d" % index, b"new%d" % index)
        with pytest.raises(CrashError):
            engine.checkpoint()           # second: dies pre-flush
        injector.disarm()
        # The new image never reached flash; the old one must still be
        # live (pre-fix it was already invalidated: RecoveryError here).
        recovered = DeuteronomyEngine.recover(engine)
        durable = {}
        for record in engine.tc.log.durable_records:
            durable[record.key] = record.value
        for index in range(60):
            key = b"key%03d" % index
            assert recovered.get(key) == durable.get(key, b"old%d" % index)

    def test_crash_after_flush_leaves_two_images_newest_wins(self):
        injector = FaultInjector(
            FaultPlan.crash_at("checkpoint.write.after_flush", 1))
        injector.disarm()
        engine = make_engine(injector)
        engine.put(b"k", b"v1")
        engine.checkpoint()
        injector.arm()
        engine.put(b"k", b"v2")
        engine.tc.log.flush()
        with pytest.raises(CrashError):
            engine.checkpoint()
        injector.disarm()
        store = engine.dc.store
        assert len(live_checkpoint_images(store)) == 2
        # Pre-fix find_latest raised RuntimeError on two live images.
        latest = CheckpointManager.find_latest(store)
        assert latest is not None
        survivors = live_checkpoint_images(store)
        assert survivors == [latest[0]]   # stale image invalidated
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"k") == b"v2"

    def test_stale_checkpoint_never_resurrects_old_values(self):
        # The newest image must win even when the stale one still lists
        # flash chains for since-rewritten pages.
        injector = FaultInjector(
            FaultPlan.crash_at("checkpoint.write.after_flush", 1))
        injector.disarm()
        engine = make_engine(injector)
        for index in range(40):
            engine.put(b"key%02d" % index, b"gen1")
        engine.checkpoint()
        for index in range(40):
            engine.put(b"key%02d" % index, b"gen2")
        engine.checkpoint()
        injector.arm()
        for index in range(40):
            engine.put(b"key%02d" % index, b"gen3")
        engine.tc.log.flush()
        with pytest.raises(CrashError):
            engine.checkpoint()
        injector.disarm()
        recovered = DeuteronomyEngine.recover(engine)
        for index in range(40):
            assert recovered.get(b"key%02d" % index) == b"gen3"


class TestDurableUnmarkedLogBuffer:
    """Crash after the device ack, before in-memory bookkeeping: the
    records are on flash but the buffer was never marked flushed."""

    def test_durable_unmarked_records_are_recovered(self):
        injector = FaultInjector(
            FaultPlan.crash_at("recovery_log.flush.after_write", 1))
        injector.disarm()
        engine = make_engine(injector)
        engine.put(b"base", b"0")
        engine.checkpoint()
        injector.arm()
        for index in range(25):
            engine.put(b"key%02d" % index, b"v%d" % index)
        with pytest.raises(CrashError):
            engine.tc.log.flush()
        injector.disarm()
        # The write was acked: those records count as durable.
        durable_keys = {r.key for r in engine.tc.log.durable_records}
        assert b"key00" in durable_keys
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"base") == b"0"
        for index in range(25):
            assert recovered.get(b"key%02d" % index) == b"v%d" % index

    def test_reflush_after_transient_ack_is_idempotent(self):
        # An IoError *after* a durable write cannot happen (the site is
        # past the device call), but a retried flush after a transient
        # failure must not duplicate records either.
        engine = make_engine(FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1)))
        for index in range(25):
            engine.put(b"key%02d" % index, b"v%d" % index)
        engine.checkpoint()               # flush retried under the fault
        engine.tc.log.flush()             # no-op: nothing new to flush
        keys = [r.key for r in engine.tc.log.durable_records]
        assert len(keys) == len(set(keys))
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"key07") == b"v7"


TINY = MatrixConfig(
    seed=0, ops=160, records=64, checkpoint_every=40, gc_every=80,
    batch_size=16, max_hits_per_site=2,
)


class TestMatrixRunner:
    def test_sample_hits_spreads_deterministically(self):
        assert _sample_hits(3, 6) == [1, 2, 3]
        assert _sample_hits(0, 6) == []
        assert _sample_hits(100, 1) == [1]
        sampled = _sample_hits(100, 6)
        assert len(sampled) == 6
        assert sampled[0] == 1 and sampled[-1] == 100
        assert sampled == _sample_hits(100, 6)

    def test_trace_is_deterministic_per_seed(self):
        assert build_trace(TINY) == build_trace(TINY)
        other = MatrixConfig(seed=1, ops=160, records=64)
        assert build_trace(other) != build_trace(TINY)

    def test_tiny_matrix_has_no_violations(self):
        report = run_matrix(TINY)
        assert report.cases, "matrix ran no cases"
        assert report.exhausted, "the exhausted-retry pass ran no cases"
        assert report.uncovered_sites == []
        assert report.total_violations == 0, report.render()

    def test_every_case_actually_crashed_and_recovered(self):
        report = run_matrix(TINY)
        for case in report.cases:
            assert case.crashed, (case.scenario, case.site, case.hit)
            assert case.recovered, (case.scenario, case.site, case.hit)

    def test_case_is_reproducible(self):
        baseline, ops = build_trace(TINY)
        first = run_case("engine", TINY, baseline, ops,
                         "checkpoint.write.after_append", 1)
        second = run_case("engine", TINY, baseline, ops,
                          "checkpoint.write.after_append", 1)
        assert first.ok and second.ok
        assert first.violations == second.violations == []

    def test_recovery_serves_what_the_live_engine_served(self):
        # An epoch write that fails every attempt: had the pipeline
        # sealed its buffer first, the buffer would never be written
        # while later ones were, and recovery would lose writes the
        # live engine served.
        baseline, ops = build_trace(TINY)
        case = run_exhausted_case("engine-async", TINY, baseline, ops,
                                  "recovery_log.flush", 2)
        assert case.crashed and case.recovered
        assert case.violations == []

    def test_noise_pass_charges_retries(self):
        report = run_matrix(TINY, noise_probability=0.1)
        assert report.noise_retries is not None
        assert report.noise_retries >= 2   # the planned per-site errors
        assert report.ok, report.render()

    def test_oracle_counts_a_transaction_only_when_it_is_whole(self):
        # One 80-write transaction whose 4 KB log buffer spilled twice:
        # 60 of its records are durable, so none of its writes are.
        engine = make_engine()
        keys = [b"k%03d" % index for index in range(80)]
        engine.apply_batch([("put", key, b"n" * 100) for key in keys])
        durable = engine.tc.log.durable_records
        (timestamp,) = {record.timestamp for record in durable}
        assert len(durable) == 60
        assert _durable_view([engine], {}, [Counter({timestamp: 80})]) == {}
        # Had it written only those 60, it would be whole.
        assert len(_durable_view([engine], {}, [Counter({timestamp: 60})])) \
            == 60

    def test_oracle_flags_a_corrupted_recovery(self, monkeypatch):
        # Sabotage: serve a stale/garbage value for one key after the
        # crash, as a GC-resurrection bug would.  The oracle must notice.
        baseline, ops = build_trace(TINY)
        victim = sorted(baseline)[0]
        real_recover = DeuteronomyEngine.recover

        def lossy_recover(cls, crashed):
            recovered = real_recover(crashed)
            recovered.dc.upsert(victim, b"bogus")
            return recovered

        monkeypatch.setattr(DeuteronomyEngine, "recover",
                            classmethod(lossy_recover))
        case = run_case("engine", TINY, baseline, ops,
                        "recovery_log.flush.after_write", 1)
        assert case.crashed and case.recovered
        assert case.violations


class TestMatrixCli:
    def test_list_sites(self, capsys):
        assert main(["--list-sites"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint.write.after_flush" in out
        assert "transient-ok" in out

    def test_smoke_run_passes(self, capsys):
        assert main(["--smoke", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert "transient-noise pass" in out

    def test_scenario_and_hit_overrides(self, capsys):
        code = main(["--smoke", "--scenario", "engine", "--max-hits", "1",
                     "--noise", "0.0"])
        out = capsys.readouterr().out
        # Engine-only run never reaches the sharded boundary site.
        assert code == 1
        assert "sharded.apply_batch.boundary never hit" in out
