"""Retry/backoff wrapper: accounting honesty and exhaustion behavior."""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    IoError,
    RetryPolicy,
    RetryStats,
    run_with_retries,
)
from repro.hardware import Machine

SITE = "log_store.flush"


def make_machine() -> Machine:
    return Machine.paper_default(cores=1)


def failing_attempt(machine: Machine, failures: int, nbytes: int = 4096):
    """An attempt closure that charges like the SSD flush path and fails
    ``failures`` times before succeeding."""
    plan = (FaultPlan.io_error_at(SITE, 1, failures=failures)
            if failures else FaultPlan())
    injector = FaultInjector(plan)

    def attempt() -> str:
        machine.io_path.charge_round_trip(nbytes)
        injector.hit(SITE)
        machine.ssd.write(nbytes)
        return "ok"

    return attempt


class TestRunWithRetries:
    def test_success_first_try_charges_once(self):
        machine = make_machine()
        stats = RetryStats()
        result = run_with_retries(
            machine, failing_attempt(machine, failures=0), stats=stats)
        assert result == "ok"
        assert stats == RetryStats(retries=0)
        assert machine.ssd.counters.get("ssd.writes") == 1

    def test_each_retry_repays_the_io_path(self):
        clean = make_machine()
        run_with_retries(clean, failing_attempt(clean, failures=0))
        flaky = make_machine()
        stats = RetryStats()
        run_with_retries(
            flaky, failing_attempt(flaky, failures=2), stats=stats)
        assert stats.retries == 2
        # Three submits went down the I/O path; only the last reached
        # the device.  The failed attempts still cost CPU.
        assert flaky.cpu.busy_seconds > 3 * clean.cpu.busy_seconds
        assert flaky.ssd.counters.get("ssd.writes") == 1

    def test_backoff_charges_grow_with_attempt(self):
        machine = make_machine()
        policy = RetryPolicy(max_attempts=4, backoff_base=2,
                             backoff_multiplier=3)
        charged = []
        before = machine.cpu.busy_seconds

        def attempt() -> None:
            nonlocal before
            charged.append(machine.cpu.busy_seconds - before)
            before = machine.cpu.busy_seconds
            raise IoError(SITE, len(charged))

        with pytest.raises(IoError):
            run_with_retries(machine, attempt, policy=policy)
        # First attempt has no backoff; then 2, 6, 18 context switches.
        assert charged[0] == 0
        assert charged[1] > 0
        assert charged[2] == pytest.approx(3 * charged[1])
        assert charged[3] == pytest.approx(9 * charged[1])

    def test_exhaustion_reraises_last_error_and_counts(self):
        machine = make_machine()
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(IoError):
            run_with_retries(
                machine, failing_attempt(machine, failures=99),
                policy=policy, stats=stats)
        # Three attempts, two of them retries, then the last error.
        assert stats == RetryStats(retries=2)

    def test_non_transient_errors_pass_through(self):
        machine = make_machine()

        def attempt() -> None:
            raise RuntimeError("not transient")

        with pytest.raises(RuntimeError, match="not transient"):
            run_with_retries(machine, attempt)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0)


class TestStoreRetryIntegration:
    def test_transient_flush_errors_are_absorbed_and_charged(self):
        from repro.bwtree import BwTree, BwTreeConfig

        machine = make_machine()
        machine.faults = FaultInjector(
            FaultPlan.io_error_at(SITE, 1, failures=2))
        tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 13))
        for index in range(200):
            tree.upsert(b"key%04d" % index, b"v" * 40)
        tree.checkpoint()
        assert tree.store.retry_stats.retries == 2
        for index in range(200):
            assert tree.get(b"key%04d" % index) == b"v" * 40

    def test_transient_log_flush_errors_keep_commits_durable(self):
        from repro.bwtree import BwTreeConfig
        from repro.deuteronomy import DeuteronomyEngine, TcConfig

        machine = make_machine()
        machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=1))
        engine = DeuteronomyEngine(
            machine, BwTreeConfig(segment_bytes=1 << 13),
            TcConfig(log_buffer_bytes=1 << 12))
        engine.put(b"base", b"0")
        engine.checkpoint()     # log flush inside hits the faulty site
        for index in range(30):
            engine.put(b"key%02d" % index, b"v%d" % index)
        engine.tc.log.flush()
        assert engine.tc.log.retry_stats.retries == 1
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"base") == b"0"
        for index in range(30):
            assert recovered.get(b"key%02d" % index) == b"v%d" % index
