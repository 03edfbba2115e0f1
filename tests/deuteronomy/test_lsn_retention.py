"""The MVCC store's retention test is an LSN comparison.

A version is its redo record, and the TC serves it from memory when
``record.lsn >= log.first_retained_lsn``.  That must say exactly what
the buffer-id rule it replaced said: the record's buffer is still in
the log's retained list.  Buffers hold contiguous LSN ranges and are
dropped oldest first, through every path that opens or drops one:
single appends, groups that spill mid-group, synchronous flushes, and
the commit pipeline's seals, submits and acks.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.deuteronomy import LogRecord, RecoveryLog
from repro.deuteronomy.commit_pipeline import CommitPipeline
from repro.hardware import LogDevice, Machine

# Records of 32 + 4 + 0..120 bytes in 256-byte buffers: groups of a few
# records spill mid-group, and a 0..600-byte budget drops buffers often.
VALUES = st.integers(0, 120)
STEP = st.one_of(
    st.tuples(st.just("append"), VALUES),
    st.tuples(st.just("group"), st.lists(VALUES, max_size=8)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("wait"), st.integers(0, 400)),
    st.tuples(st.just("enqueue")),
    st.tuples(st.just("force")),
)


def build(step, log):
    """The records of one append step, numbered as the TC numbers them."""
    sizes = [step[1]] if step[0] == "append" else step[1]
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


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(STEP, max_size=40),
       budget=st.one_of(st.none(), st.integers(0, 600)),
       pipelined=st.booleans())
def test_the_lsn_test_is_the_retained_buffer_test(steps, budget, pipelined):
    machine = Machine.paper_default(cores=1)
    log = RecoveryLog(machine, buffer_bytes=256, retain_budget_bytes=budget)
    pipeline = None
    if pipelined:
        pipeline = CommitPipeline(machine, log,
                                  LogDevice(machine.ssd, machine.clock),
                                  commit_interval_us=20.0, epoch_bytes=512)
    appended = []
    for step in steps:
        kind = step[0]
        if kind == "append":
            appended.extend(build(step, log))
            log.append(appended[-1])
        elif kind == "group":
            records = build(step, log)
            log.append_batch(records)
            appended.extend(records)
        elif kind == "flush":
            if pipeline is None:
                log.flush()
        elif kind == "wait":
            machine.clock.advance(step[1] * 1e-6)
            if pipeline is not None:
                pipeline.ack()
        elif kind == "enqueue":
            if pipeline is not None:
                pipeline.enqueue_epoch()
        elif pipeline is not None:
            pipeline.force()
        assert log.appended_records == len(appended)
        assert_retention_is_the_buffer_rule(log, appended)
    if pipeline is not None:
        pipeline.force()
    else:
        log.flush()
    assert_retention_is_the_buffer_rule(log, appended)
    assert [record.lsn for record in log.durable_records] == list(
        range(1, len(appended) + 1))


def test_a_group_that_spills_mid_group_keeps_its_lsns_retained():
    """The case a per-group LSN count gets wrong: a buffer opened by a
    spill inside a group starts at the next record's LSN, not at the
    count the log held before the group."""
    machine = Machine.paper_default(cores=1)
    log = RecoveryLog(machine, buffer_bytes=256, retain_budget_bytes=0)
    records = build(("group", [101] * 5), log)
    log.append_batch(records)
    # Four full buffers flushed and dropped mid-group; the open one holds
    # the group's tail.
    assert log.first_retained_lsn == 5
    assert [record.lsn >= log.first_retained_lsn
            for record in records] == [False] * 4 + [True]
    assert_retention_is_the_buffer_rule(log, records)
