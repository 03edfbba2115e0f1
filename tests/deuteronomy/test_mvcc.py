"""Version store: visibility, ordering, truncation."""

import pytest

from repro.deuteronomy import LogRecord, VersionStore
from repro.hardware import Machine


@pytest.fixture
def store(machine: Machine) -> VersionStore:
    return VersionStore(machine)


def v(key: bytes, ts: int, value: bytes = b"v", lsn: int = 0) -> LogRecord:
    """A committed version: the redo record that installs it."""
    return LogRecord(key, value, ts, 0, lsn)


def test_add_and_visible(store):
    store.add(v(b"k", 5, b"five"))
    version, examined = store.visible(b"k", 10)
    assert version is not None and version.value == b"five"
    assert examined == 1


def test_visibility_respects_snapshot(store):
    store.add(v(b"k", 5, b"five"))
    store.add(v(b"k", 9, b"nine"))
    assert store.visible(b"k", 9)[0].value == b"nine"
    assert store.visible(b"k", 8)[0].value == b"five"
    assert store.visible(b"k", 4)[0] is None


def test_unknown_key(store):
    version, examined = store.visible(b"k", 100)
    assert version is None and examined == 0


def test_timestamps_must_increase(store):
    store.add(v(b"k", 5))
    with pytest.raises(ValueError):
        store.add(v(b"k", 5))
    with pytest.raises(ValueError):
        store.add(v(b"k", 4))


def test_newest_timestamp(store):
    assert store.newest_timestamp(b"k") is None
    store.add(v(b"k", 3))
    store.add(v(b"k", 7))
    assert store.newest_timestamp(b"k") == 7


def test_delete_version_visible_as_none_value(store):
    store.add(LogRecord(b"k", None, 5, 0, 0))
    version, __ = store.visible(b"k", 10)
    assert version is not None and version.value is None


def test_truncate_keeps_visible_horizon_version(store):
    for ts in (1, 5, 9):
        store.add(v(b"k", ts, b"%d" % ts))
    removed = store.truncate(horizon_timestamp=6)
    # Version 5 is the newest at-or-below the horizon: must survive.
    assert removed == 1   # only ts=1 dropped
    assert store.visible(b"k", 6)[0].value == b"5"
    assert store.visible(b"k", 9)[0].value == b"9"


def test_truncate_noop_when_all_above_horizon(store):
    store.add(v(b"k", 10))
    assert store.truncate(5) == 0
    assert store.version_count() == 1


def test_bytes_accounting(store, machine):
    store.add(v(b"k", 1, b"x" * 100))
    store.add(v(b"k", 2, b"x" * 100))
    assert machine.dram.bytes_for("tc_version_store") \
        == store.resident_bytes
    store.truncate(2)
    assert machine.dram.bytes_for("tc_version_store") \
        == store.resident_bytes


def test_counts(store):
    store.add(v(b"a", 1))
    store.add(v(b"a", 2))
    store.add(v(b"b", 1))
    assert store.key_count() == 2
    assert store.version_count() == 3


def test_truncate_never_empties_a_chain(store):
    """The newest version at or below the horizon is always kept, so
    every key ever written keeps one version and its key bytes."""
    for index in range(20):
        key = b"k%02d" % index
        for ts in range(1, 4):
            store.add(v(key, 10 * index + ts))
    assert store.truncate(10_000) == 40
    assert store.key_count() == 20
    assert store.version_count() == 20
    for index in range(20):
        assert store.newest_timestamp(b"k%02d" % index) == 10 * index + 3
    assert store.truncate(10_000) == 0
    assert store.key_count() == 20


def test_truncate_handles_successors_out_of_order_across_keys(store):
    """Direct callers and redo replay may install a lower successor
    timestamp after a higher one on another key."""
    store.add(v(b"a", 1))
    store.add(v(b"a", 6))
    store.add(v(b"b", 1))
    store.add(v(b"b", 3))           # successor 3 filed after successor 6
    assert store.truncate(4) == 1   # only b@1: a's successor is above 4
    assert store.visible(b"b", 2)[0] is None
    assert store.visible(b"a", 2)[0].timestamp == 1
    assert store.truncate(2) == 0   # a lower horizon reclaims nothing more
    assert store.truncate(6) == 1
    assert store.version_count() == 2


class CountingDict(dict):
    """Counts chain lookups made through ``[]``."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_truncate_visits_only_superseded_chains(store):
    """Complexity guard, in lookups rather than seconds: chains with
    nothing to reclaim are never touched."""
    for index in range(10_000):
        store.add(v(b"key%06d" % index, index + 1))
    store.chains = chains = CountingDict(store.chains)
    assert store.truncate(1 << 40) == 0
    assert chains.lookups == 0
    superseded = 25
    for index in range(superseded):
        store.add(v(b"key%06d" % index, 20_000 + index))
    assert store.truncate(1 << 40) == superseded
    assert chains.lookups <= superseded
    assert store.version_count() == 10_000
