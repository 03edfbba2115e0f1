"""DeuteronomyEngine facade and explicit TC transactions."""

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig, TransactionAborted
from repro.hardware import Machine


@pytest.fixture
def engine(machine: Machine) -> DeuteronomyEngine:
    return DeuteronomyEngine(
        machine, BwTreeConfig(segment_bytes=1 << 16)
    )


def test_autocommit_put_get_delete(engine):
    engine.put(b"k", b"v")
    assert engine.get(b"k") == b"v"
    engine.delete(b"k")
    assert engine.get(b"k") is None


def test_a_multi_key_transaction_commits_every_key(engine):
    engine.put(b"from", b"100")
    engine.put(b"to", b"0")
    txn = engine.tc.begin()
    amount = engine.tc.read(txn, b"from")
    engine.tc.write(txn, b"from", b"0")
    engine.tc.write(txn, b"to", amount)
    engine.tc.commit(txn)
    assert engine.get(b"from") == b"0"
    assert engine.get(b"to") == b"100"


def test_conflict_propagates(engine):
    t1 = engine.tc.begin()
    t2 = engine.tc.begin()
    engine.tc.write(t1, b"k", b"A")
    engine.tc.write(t2, b"k", b"B")
    engine.tc.commit(t1)
    with pytest.raises(TransactionAborted):
        engine.tc.commit(t2)


def test_checkpoint_flushes_log_and_pages(engine, machine):
    for index in range(200):
        engine.put(b"key%04d" % index, b"v" * 50)
    engine.checkpoint()
    assert machine.ssd.counters.get("ssd.writes") > 0
    assert engine.dc.store.stored_bytes > 0


def test_engine_survives_cold_cache(engine):
    for index in range(300):
        engine.put(b"key%04d" % index, b"v%d" % index)
    engine.checkpoint()
    engine.dc.cache.capacity_bytes = 4096
    engine.dc.cache.ensure_capacity()
    engine.dc.cache.capacity_bytes = None
    for index in range(300):
        assert engine.get(b"key%04d" % index) == b"v%d" % index


REJECTED_WRITES = {
    "put-str-value": (lambda e: e.put(b"b", "not-bytes"), TypeError),
    "put-str-key": (lambda e: e.put("b", b"v"), TypeError),
    "put-empty-key": (lambda e: e.put(b"", b"v"), ValueError),
    "delete-str-key": (lambda e: e.delete("a"), TypeError),
    "apply_batch-put-empty-key": (
        lambda e: e.apply_batch([("put", b"b", b"1"), ("put", b"", b"2"),
                                 ("put", b"c", b"3")]),
        ValueError),
    "apply_batch-int-value": (
        lambda e: e.apply_batch([("put", b"b", b"1"), ("put", b"c", 7)]),
        TypeError),
}


@pytest.mark.parametrize("name", sorted(REJECTED_WRITES))
def test_a_rejected_write_is_neither_logged_nor_applied(engine, name):
    """A key or value the data component would reject is refused before
    anything of the call is billed or counted: no operation, no core-µs,
    no begin, write or abort, and no transaction id consumed.  Nothing
    of it is logged, versioned or posted (no half-applied batch), no
    transaction stays active to pin the version-GC horizon, and
    recovery does not replay a record it cannot apply."""
    write, error = REJECTED_WRITES[name]
    engine.put(b"a", b"1")
    machine, tc = engine.machine, engine.tc
    before = (machine.operations, machine.cpu.busy_us,
              tc.counters.snapshot(), tc._next_txn_id)
    with pytest.raises(error):
        write(engine)
    assert (machine.operations, machine.cpu.busy_us,
            tc.counters.snapshot(), tc._next_txn_id) == before
    assert engine.tc._active == {}
    for key, expected in ((b"a", b"1"), (b"b", None), (b"c", None)):
        assert engine.get(key) == expected
        assert engine.dc.get(key) == expected
    engine.checkpoint()
    assert [record.key for record in engine.tc.log.durable_records] == [
        b"a"]
    recovered = DeuteronomyEngine.recover(engine)
    assert recovered.get(b"a") == b"1"
    assert recovered.get(b"b") is None


def test_a_redo_record_larger_than_a_log_buffer_is_refused_at_admission():
    """A redo record that no log buffer can hold is refused before the
    transaction begins, on every write entry point: nothing of the call
    is billed, counted or logged, and no txn id is consumed.  The log
    itself once found it mid-batch, after ``k1`` was already in the
    open buffer; the next commit then reused ``k1``'s LSN, and the
    durable log held ``k1`` (a torn transaction) and ``k3``, both at
    LSN 1."""
    engine = DeuteronomyEngine(Machine.paper_default(cores=1),
                               tc_config=TcConfig(log_buffer_bytes=4096))
    machine, tc, log = engine.machine, engine.tc, engine.tc.log
    big = b"y" * 5000

    def state():
        return (machine.operations, machine.cpu.busy_us,
                tc.counters.snapshot(), tc._next_txn_id,
                log.appended_records, log.appended_bytes,
                machine.dram.bytes_for("tc_recovery_log"))

    before = state()
    for refused in (
            lambda: engine.apply_batch([("put", b"k1", b"x" * 100),
                                        ("put", b"k2", big)]),
            lambda: engine.apply_batch([("delete", b"k" * 5000, None)]),
            lambda: engine.put(b"k2", big),
            lambda: engine.delete(b"k" * 5000)):
        with pytest.raises(ValueError, match="exceeds buffer size 4096"):
            refused()
        assert state() == before
    assert tc._active == {}
    engine.put(b"k3", b"z")
    tc.sync_log()
    assert [(record.key, record.lsn, record.end)
            for record in log.durable_records] == [(b"k3", 1, True)]
    assert log.appended_records == 1
    assert engine.get(b"k1") is None
    txn = tc.begin()
    with pytest.raises(ValueError, match="exceeds buffer size 4096"):
        tc.write(txn, b"k2", big)
    assert txn.write_set == {}


REJECTED_READS = {
    "get-empty-key": (lambda e: e.get(b""), ValueError),
    "get-str-key": (lambda e: e.get("a"), TypeError),
    "multi_get-empty-key": (lambda e: e.multi_get([b"a", b""]), ValueError),
    "apply_batch-int-key": (
        lambda e: e.apply_batch([("get", b"a", None), ("get", 7, None)]),
        TypeError),
    "apply_batch-put-then-bad-get": (
        lambda e: e.apply_batch([("put", b"b", b"1"), ("get", b"", None)]),
        ValueError),
    # A batch that reads before its bad op is refused whole, too.
    "apply_batch-get-then-put-without-value": (
        lambda e: e.apply_batch([("get", b"a", None), ("put", b"b", None)]),
        ValueError),
    "apply_batch-get-then-unknown-kind": (
        lambda e: e.apply_batch([("get", b"a", None), ("frob", b"b", None)]),
        ValueError),
    "apply_batch-get-then-str-value": (
        lambda e: e.apply_batch([("get", b"a", None), ("put", b"b", "1")]),
        TypeError),
}


@pytest.mark.parametrize("name", sorted(REJECTED_READS))
def test_a_rejected_read_is_neither_billed_nor_counted(engine, name):
    """A read of a key the data component would reject is refused
    before anything is charged or counted: no operation, no core-µs, no
    begin, read or abort — and no half-run batch."""
    read, error = REJECTED_READS[name]
    engine.put(b"a", b"1")
    machine, tc = engine.machine, engine.tc
    before = (machine.operations, machine.cpu.busy_us,
              tc.counters.snapshot())
    with pytest.raises(error):
        read(engine)
    assert (machine.operations, machine.cpu.busy_us,
            tc.counters.snapshot()) == before
    assert tc._active == {}
    assert engine.get(b"b") is None


def test_a_rejected_read_in_an_open_transaction_is_not_counted(engine):
    """Inside an explicit transaction the request dispatch is billed,
    but the read itself is refused before it counts as an operation."""
    machine, tc = engine.machine, engine.tc
    txn = tc.begin()
    with pytest.raises(ValueError):
        tc.read(txn, b"")
    tc.abort(txn)
    assert machine.operations == 0
    assert tc.counters.get("tc.reads") == 0
    assert tc.counters.get("tc.aborts") == 1
