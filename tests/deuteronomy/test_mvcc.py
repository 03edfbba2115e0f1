"""Version store: visibility, ordering, truncation."""

import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.deuteronomy import (
    DeuteronomyEngine,
    LogRecord,
    TcConfig,
    VersionStore,
)
from repro.deuteronomy.mvcc import DRAM_TAG, VERSION_ENTRY_OVERHEAD_BYTES
from repro.hardware import Machine
from repro.hardware.dram import DramModel


@pytest.fixture
def store(machine: Machine) -> VersionStore:
    return VersionStore(machine)


def v(key: bytes, ts: int, value: bytes = b"v", lsn: int = 0) -> LogRecord:
    """A committed version: the redo record that installs it."""
    return LogRecord(key, value, ts, 0, lsn)


def version_bytes(version: LogRecord) -> int:
    """The modelled size of a version, which is not its log size."""
    return VERSION_ENTRY_OVERHEAD_BYTES + len(version.value or b"")


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


# ----------------------------------------------------------------------
# incremental truncate vs. the full walk it replaced
# ----------------------------------------------------------------------

def full_walk_truncate(chains, horizon_timestamp):
    """The retired ``VersionStore.truncate``: visit every chain, keep the
    newest version at or below the horizon and everything above it.
    Returns (versions removed, bytes freed)."""
    removed = 0
    freed = 0
    for chain in chains.values():
        keep = len(chain)
        for index, version in enumerate(chain):
            if version.timestamp <= horizon_timestamp:
                keep = index + 1
                break
        for version in chain[keep:]:
            freed += version_bytes(version)
            removed += 1
        del chain[keep:]
    return removed, freed


class CheckedVersionStore(VersionStore):
    """A VersionStore that replays every add/truncate on full-walk
    bookkeeping and asserts the two agree after each call."""

    def __init__(self, machine):
        super().__init__(machine)
        self.ref_chains = {}
        self.ref_dram = DramModel()
        self.reclaimed = 0

    def add(self, version):
        super().add(version)
        key = version.key
        chain = self.ref_chains.setdefault(key, [])
        chain.insert(0, version)
        self.ref_dram.allocate(
            version_bytes(version) + (len(key) if len(chain) == 1 else 0),
            DRAM_TAG)
        self.check()

    def truncate(self, horizon_timestamp):
        removed = super().truncate(horizon_timestamp)
        expected, freed = full_walk_truncate(
            self.ref_chains, horizon_timestamp)
        self.ref_dram.free(freed, DRAM_TAG)
        assert removed == expected
        self.reclaimed += removed
        self.check()
        return removed

    def check(self):
        assert self.chains == self.ref_chains
        expected_bytes = self.ref_dram.bytes_for(DRAM_TAG)
        assert self.resident_bytes == expected_bytes
        assert self.machine.dram.bytes_for(DRAM_TAG) == expected_bytes
        assert self.version_count() == sum(
            len(chain) for chain in self.ref_chains.values())
        assert self.key_count() == len(self.ref_chains)


STORE_KEYS = st.sampled_from([b"a", b"bb", b"ccc"])
# Per-key timestamps advance independently, so successor timestamps
# arrive out of order across keys; horizons move in both directions
# inside the range the timestamps reach.
STORE_ADD = st.tuples(st.just("add"), STORE_KEYS, st.integers(1, 4),
                      st.one_of(st.none(), st.binary(max_size=8)))
STORE_OPS = st.lists(st.one_of(
    STORE_ADD, STORE_ADD, STORE_ADD,
    st.tuples(st.just("truncate"), st.integers(-2, 24)),
    st.tuples(st.just("truncate"), st.integers(-2, 24)),
    st.tuples(st.just("crash")),
), max_size=40)


@settings(max_examples=400, deadline=None)
@given(ops=STORE_OPS)
def test_truncate_matches_full_walk(ops):
    """Random add/truncate/crash-replay sequences, horizons in any order:
    every step leaves the same chains, bytes, counts and DRAM as the walk
    over every chain did."""
    store = CheckedVersionStore(Machine.paper_default(cores=1))
    redo = []
    for op in ops:
        if op[0] == "add":
            __, key, step, value = op
            timestamp = (store.newest_timestamp(key) or 0) + step
            redo.append(LogRecord(key, value, timestamp, 0, len(redo) + 1))
            store.add(redo[-1])
        elif op[0] == "truncate":
            store.truncate(op[1])
        else:
            # Power loss: DRAM is gone, redo replay re-installs every
            # logged version in log order (reclaimed ones included).
            store = CheckedVersionStore(Machine.paper_default(cores=1))
            for version in redo:
                store.add(version)


def test_truncate_matches_full_walk_through_engine_crash_and_replay():
    """The TC's own call pattern — commit, commit_batch, horizon GC,
    crash, ``replay_redo`` — checked step by step against the walk."""
    rng = random.Random(11)
    keys = [b"key%03d" % index for index in range(40)]
    config = TcConfig(version_gc_horizon_lag=16, sync_commit=True)
    with mock.patch("repro.deuteronomy.tc.VersionStore",
                    CheckedVersionStore):
        engine = DeuteronomyEngine(Machine.paper_default(cores=1),
                                   tc_config=config)
        for round_index in range(3):
            for __ in range(60):
                engine.put(rng.choice(keys), b"v%d" % rng.randrange(1000))
            engine.apply_batch([
                ("put", rng.choice(keys), b"b%d" % rng.randrange(1000))
                for __ in range(64)
            ])
            engine.apply_batch(
                ("put", rng.choice(keys), b"m%d" % rng.randrange(1000))
                for __ in range(20))
            assert engine.tc.versions.reclaimed > 0
            if round_index == 0:
                engine.checkpoint()
            if round_index == 1:
                engine = DeuteronomyEngine.recover(engine)
                assert isinstance(engine.tc.versions, CheckedVersionStore)
                assert engine.tc.counters.get("tc.redo_replayed") > 0
