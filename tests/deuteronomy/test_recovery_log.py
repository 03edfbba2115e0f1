"""Recovery log: buffering, large writes, retention budget."""

import pytest

from repro.deuteronomy import LogRecord, RecoveryLog
from repro.hardware import Machine


def record(index: int, size: int = 50) -> LogRecord:
    return LogRecord(b"k%04d" % index, b"v" * size, timestamp=index,
                     txn_id=index, lsn=index + 1)


@pytest.fixture
def log(machine: Machine) -> RecoveryLog:
    return RecoveryLog(machine, buffer_bytes=1024,
                       retain_budget_bytes=4096)


def test_append_returns_buffer_id(log):
    assert log.append(record(1)) == 0
    assert log.appended_records == 1


def test_buffer_flushes_when_full(log, machine):
    writes_before = machine.ssd.counters.get("ssd.writes")
    for index in range(40):   # ~86 bytes each, 1 KiB buffers
        log.append(record(index))
    assert log.flushes >= 2
    assert machine.ssd.counters.get("ssd.writes") > writes_before


def test_flush_is_one_large_write(log, machine):
    for index in range(5):
        log.append(record(index))
    writes_before = machine.ssd.counters.get("ssd.writes")
    log.flush()
    assert machine.ssd.counters.get("ssd.writes") == writes_before + 1


def test_flush_empty_is_noop(log):
    assert log.flush() is None


def test_flushed_buffers_retained_until_budget(log):
    for index in range(200):
        log.append(record(index))
    assert log.retained_bytes <= 4096 + 1024   # budget + open buffer slack
    assert log.first_retained_lsn > 1   # the oldest buffers were dropped


def test_is_buffer_retained(log):
    """A record is servable from memory while the log retains its LSN."""
    first = record(0)
    log.append(first)
    assert first.lsn >= log.first_retained_lsn
    for index in range(1, 300):
        log.append(record(index))
    assert first.lsn < log.first_retained_lsn
    last = record(300)
    log.append(last)
    assert last.lsn >= log.first_retained_lsn


def test_unbounded_retention(machine):
    log = RecoveryLog(machine, buffer_bytes=512, retain_budget_bytes=None)
    for index in range(100):
        log.append(record(index))
    assert log.first_retained_lsn == 1


def test_oversized_record_rejected(log):
    with pytest.raises(ValueError):
        log.append(record(1, size=5000))


def test_retained_record_index_newest_wins(log):
    log.append(LogRecord(b"k", b"v1", 1, 1, 1))
    log.append(LogRecord(b"k", b"v2", 2, 2, 2))
    assert log.retained_record_index()[b"k"].value == b"v2"


def test_delete_record_allowed(log):
    tombstone = LogRecord(b"k", None, 1, 1, 1)
    log.append(tombstone)
    assert tombstone.lsn >= log.first_retained_lsn


def test_append_batch_accounts_what_single_appends_do():
    """A group append places, retains and bills the same bytes as one
    append per record (each record sized as ``LogRecord.size_bytes``):
    only the number of charges differs."""
    records = [record(index, size=index % 7 * 20) for index in range(30)]
    records[3] = LogRecord(b"gone", None, 3, 3, 4)
    single, batched = Machine.paper_default(), Machine.paper_default()
    one_by_one = RecoveryLog(single, buffer_bytes=1024,
                             retain_budget_bytes=2048)
    grouped = RecoveryLog(batched, buffer_bytes=1024,
                          retain_budget_bytes=2048)
    for entry in records:
        one_by_one.append(entry)
    grouped.append_batch(records)
    assert ([(buffer.buffer_id, buffer.records) for buffer in grouped._buffers]
            == [(buffer.buffer_id, buffer.records)
                for buffer in one_by_one._buffers])
    assert grouped.first_retained_lsn == one_by_one.first_retained_lsn
    total = sum(entry.size_bytes for entry in records)
    assert grouped.appended_bytes == one_by_one.appended_bytes == total
    assert grouped.retained_bytes == one_by_one.retained_bytes
    assert (batched.dram.bytes_for("tc_recovery_log")
            == single.dram.bytes_for("tc_recovery_log"))
    log_cpu = "cpu_us.tc_log"
    per_byte = batched.cpu.costs.log_append_per_byte
    assert (batched.cpu.counters.get(log_cpu)
            == pytest.approx(total * per_byte))
    assert (batched.cpu.counters.get(log_cpu)
            == pytest.approx(single.cpu.counters.get(log_cpu)))


class TestRetentionBudget:
    """Direct ``_enforce_budget`` behaviour: eviction order, additivity,
    and the sealed/unflushed protections the async pipeline relies on."""

    def test_eviction_is_strictly_oldest_first(self, log):
        for index in range(200):
            log.append(record(index))
        retained_ids = [buffer.buffer_id for buffer in log._buffers]
        oldest = retained_ids[0]
        assert oldest > 0   # some buffers were dropped
        # Exactly the newest suffix of buffer ids survives: ids are
        # contiguous from the oldest retained one up to the open buffer.
        assert retained_ids == list(range(oldest,
                                          oldest + len(retained_ids)))
        # So the retained records are exactly the LSNs from
        # ``first_retained_lsn`` on.
        assert [entry.lsn for buffer in log._buffers
                for entry in buffer.records] == list(
            range(log.first_retained_lsn, 201))

    def test_retained_bytes_is_the_sum_of_retained_buffers(self, log):
        for index in range(150):
            log.append(record(index))
        assert log.retained_bytes == sum(
            buffer.nbytes for buffer in log._buffers)

    def test_unflushed_buffer_is_never_dropped(self, machine):
        # Budget far smaller than one buffer: the open (unflushed)
        # buffer must survive enforcement regardless.
        log = RecoveryLog(machine, buffer_bytes=1024,
                          retain_budget_bytes=64)
        for index in range(5):
            log.append(record(index))
        log._enforce_budget()
        assert log.retained_buffers >= 1
        assert log.retained_bytes > 64   # over budget, but not droppable

    def test_sealed_unflushed_buffer_survives_budget_pressure(
            self, machine):
        log = RecoveryLog(machine, buffer_bytes=1024,
                          retain_budget_bytes=64)
        for index in range(5):
            log.append(record(index))
        sealed = log.seal()   # still owed to durable_records
        log._enforce_budget()
        assert sealed.records[0].lsn >= log.first_retained_lsn
        assert log.sealed_pending == 1

    def test_budget_enforced_at_mark_durable_not_seal(self, machine):
        from repro.hardware import LogDevice

        log = RecoveryLog(machine, buffer_bytes=1024,
                          retain_budget_bytes=64)
        device = LogDevice(machine.ssd, machine.clock)
        for index in range(5):
            log.append(record(index))
        log.submit_sealed(device)
        sealed = log.seal()
        assert sealed.records[0].lsn >= log.first_retained_lsn
        log.mark_durable(sealed)
        # The ack made the buffer evictable and the budget is tiny:
        # enforcement runs inside mark_durable and drops it.
        assert sealed.records[-1].lsn < log.first_retained_lsn
        assert log.durable_lsn == 5   # eviction never touches durability

    def test_partial_flush_keeps_retention_exact(self, machine):
        """A buffer made durable via the async path stays retained (and
        servable) until the budget — not the flush — evicts it."""
        from repro.hardware import LogDevice

        log = RecoveryLog(machine, buffer_bytes=1024,
                          retain_budget_bytes=8192)
        device = LogDevice(machine.ssd, machine.clock)
        first = record(0)
        log.append(first)
        log.submit_sealed(device)
        sealed = log.seal()
        log.mark_durable(sealed)
        assert first.lsn >= log.first_retained_lsn   # budget not exceeded
        assert log.retained_bytes == sum(
            buffer.nbytes for buffer in log._buffers)
        assert log.durable_records == sealed.records

    def test_mark_durable_twice_does_not_duplicate(self, machine):
        from repro.hardware import LogDevice

        log = RecoveryLog(machine, buffer_bytes=1024)
        device = LogDevice(machine.ssd, machine.clock)
        for index in range(3):
            log.append(record(index))
        log.submit_sealed(device)
        sealed = log.seal()
        log.mark_durable(sealed)
        log.mark_durable(sealed)   # resubmission after a transient error
        assert log.durable_lsn == 3
        assert log.flushes == 1
        assert log.sealed_pending == 0
