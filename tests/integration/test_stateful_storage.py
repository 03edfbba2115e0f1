"""Stateful property testing of the full Bw-tree/LLAMA stack.

Hypothesis drives arbitrary interleavings of user operations and
maintenance actions (checkpoint, GC, crash+recover, cache resizing)
against a shadow dict.  This is the harshest correctness test in the
suite: every historical storage bug (the blind-update empty-base coercion,
the stale-checkpoint-after-GC hole, the write-buffer hole accounting)
would be found by one of these interleavings.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine

KEYS = st.binary(min_size=1, max_size=10)
VALUES = st.binary(min_size=0, max_size=50)


class BwTreeStateMachine(RuleBasedStateMachine):
    """The tree must match a dict under any maintenance interleaving."""

    keys = Bundle("keys")

    @initialize()
    def setup(self) -> None:
        self.machine = Machine.paper_default(cores=1)
        self.tree = BwTree(self.machine, BwTreeConfig(
            cache_capacity_bytes=4096,
            segment_bytes=1 << 12,
            max_page_bytes=512,
            max_flash_fragments=3,
        ))
        self.model: dict = {}
        self.checkpointed = False

    # --- user operations ------------------------------------------------

    @rule(target=keys, key=KEYS)
    def remember_key(self, key: bytes) -> bytes:
        return key

    @rule(key=keys, value=VALUES)
    def upsert(self, key: bytes, value: bytes) -> None:
        self.tree.upsert(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key: bytes) -> None:
        self.tree.delete(key)
        self.model.pop(key, None)

    @rule(key=keys)
    def get(self, key: bytes) -> None:
        assert self.tree.get(key) == self.model.get(key)

    @rule(start=KEYS)
    def scan_prefix(self, start: bytes) -> None:
        got = list(self.tree.scan(start, limit=10))
        want = [(k, self.model[k]) for k in sorted(self.model)
                if k >= start][:10]
        assert got == want

    # --- maintenance --------------------------------------------------------

    @rule()
    def checkpoint(self) -> None:
        self.tree.checkpoint()
        self.checkpointed = True

    @rule()
    def collect_garbage(self) -> None:
        self.tree.collect_garbage(0.9)
        self.checkpointed = True

    @rule(capacity=st.sampled_from([2048, 4096, 16384, None]))
    def resize_cache(self, capacity) -> None:
        self.tree.cache.capacity_bytes = capacity
        self.tree.cache.ensure_capacity()

    @rule(seconds=st.floats(0.1, 100.0))
    def pass_time_and_sweep(self, seconds: float) -> None:
        self.machine.clock.advance(seconds)
        self.tree.cache.evict_idle_pages()

    @precondition(lambda self: self.checkpointed)
    @rule()
    def crash_and_recover(self) -> None:
        """Crash: state since the last checkpoint is rolled back, so the
        shadow model resets to what a full re-read observes."""
        self.tree = self.tree.simulate_crash_and_recover()
        self.model = dict(self.tree.scan(b"\x00"))

    # --- invariants -----------------------------------------------------------

    @invariant()
    def cache_within_budget(self) -> None:
        capacity = self.tree.cache.capacity_bytes
        if capacity is not None:
            assert self.tree.cache.resident_bytes <= capacity

    @invariant()
    def dram_accounting_consistent(self) -> None:
        dram = self.machine.dram
        assert dram.bytes_for("page_cache") \
            == self.tree.cache.resident_bytes

    @invariant()
    def store_occupancy_sane(self) -> None:
        store = self.tree.store
        assert 0 <= store.live_bytes <= store.stored_bytes


TestBwTreeStateMachine = BwTreeStateMachine.TestCase
TestBwTreeStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None,
)
