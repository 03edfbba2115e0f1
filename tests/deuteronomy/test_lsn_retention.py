"""The MVCC store's retention test is an LSN comparison.

A version is its redo record, and the TC serves it from memory when
``record.lsn >= log.first_retained_lsn``.  That must say what the
buffer-id rule it replaced said: the record's buffer is still in the
log's retained list.  Buffers hold contiguous LSN ranges and are
dropped oldest first.
"""

from repro.deuteronomy import LogRecord, RecoveryLog
from repro.hardware import Machine


def build(sizes, log):
    """A group of records of ``sizes``, numbered as the TC numbers them."""
    first = log.appended_records + 1
    return [LogRecord(b"k%03d" % ((first + index) % 997),
                      b"v" * size if size % 5 else None,
                      first + index, first + index, first + index)
            for index, size in enumerate(sizes)]


def assert_retention_is_the_buffer_rule(log, appended):
    retained = {id(record) for buffer in log._buffers
                for record in buffer.records}
    for record in appended:
        assert (record.lsn >= log.first_retained_lsn) == (
            id(record) in retained), (record.lsn, log.first_retained_lsn)


def test_a_group_that_spills_mid_group_keeps_its_lsns_retained():
    """The case a per-group LSN count gets wrong: a buffer opened by a
    spill inside a group starts at the next record's LSN, not at the
    count the log held before the group."""
    machine = Machine.paper_default(cores=1)
    log = RecoveryLog(machine, buffer_bytes=256, retain_budget_bytes=0)
    records = build([101] * 5, log)
    log.append_batch(records)
    # Four full buffers flushed and dropped mid-group; the open one holds
    # the group's tail.
    assert log.first_retained_lsn == 5
    assert [record.lsn >= log.first_retained_lsn
            for record in records] == [False] * 4 + [True]
    assert_retention_is_the_buffer_rule(log, records)
