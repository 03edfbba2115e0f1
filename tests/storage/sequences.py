"""Seeded Bw-tree step sequences over a cache smaller than the data.

One generator for the tests that hold the page cache's host-side
bookkeeping to a reference (``test_victim_oracle``) or to a
from-scratch recomputation (``test_size_accounting``): small pages so
a few hundred records split, a budget of a few pages so most reads
miss, and every way a page enters or leaves ``_resident`` — fetch,
blind update to an evicted page, eviction of a whole or a delta-only
page, tier demote/promote, the Ti idle sweep, a budget cut under a
warm cache, checkpoint, GC relocation, crash and recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple
from unittest import mock

import hypothesis.strategies as st

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine
from repro.storage import PageCache

TI_SECONDS = 2e-4
KEY_SPACE = 240
LOADED_KEYS = 160


@dataclass(frozen=True)
class Shape:
    """The cache configuration one run is driven under."""

    demote_to_tiers: bool
    capacity_bytes: int

    def config(self) -> BwTreeConfig:
        return BwTreeConfig(
            max_page_bytes=512, consolidate_threshold=4,
            segment_bytes=1 << 13, cache_capacity_bytes=self.capacity_bytes,
            demote_to_tiers=self.demote_to_tiers,
        )


SHAPES = st.builds(
    Shape,
    demote_to_tiers=st.booleans(),
    # 600 is under one full page: a miss or a blind post can leave only
    # its protected page resident and still be over budget.
    capacity_bytes=st.sampled_from([600, 1500, 4000, 9000]),
)
SEEDS = st.integers(0, 2 ** 16)

Step = Tuple


def key_of(index: int) -> bytes:
    return b"key%05d" % index


def make_steps(seed: int, count: int = 300) -> List[Step]:
    """The load (one upsert per key) followed by ``count`` mixed steps."""
    source = random.Random(seed)

    def value() -> bytes:
        return bytes([source.randrange(256)]) * source.randrange(8, 72)

    steps: List[Step] = [("upsert", key_of(index), value())
                         for index in range(LOADED_KEYS)]
    steps.append(("checkpoint",))
    for __ in range(count):
        draw = source.random()
        key = key_of(source.randrange(KEY_SPACE))
        if draw < 0.46:
            steps.append(("get", key))
        elif draw < 0.74:
            steps.append(("upsert", key, value()))
        elif draw < 0.83:
            steps.append(("delete", key))
        elif draw < 0.86:
            # A run of neighbours, so pages consolidate down to empty.
            first = source.randrange(KEY_SPACE - 12)
            steps.extend(("delete", key_of(first + offset))
                         for offset in range(12))
        elif draw < 0.91:
            steps.append(("idle", source.choice([0.5, 3.0]) * TI_SECONDS))
        elif draw < 0.94:
            steps.append(("evict_idle",))
        elif draw < 0.96:
            steps.append(("checkpoint",))
        elif draw < 0.975:
            steps.append(("squeeze", source.choice([8, 3])))
        elif draw < 0.99:
            steps.append(("gc",))
        else:
            steps.append(("crash",))
    return steps


def with_tiny_ti(tree: BwTree) -> BwTree:
    """Shorten the idle-sweep breakeven, as the adaptive controller does."""
    tree.cache.ti_seconds = TI_SECONDS
    return tree


def make_tree(shape: Shape, cache_class: type = PageCache) -> BwTree:
    with mock.patch("repro.bwtree.tree.PageCache", cache_class):
        return with_tiny_ti(
            BwTree(Machine.paper_default(cores=1), shape.config()))


def apply_step(tree: BwTree, step: Step,
               cache_class: type = PageCache) -> BwTree:
    """Run one step; returns the tree to keep using (new after a crash)."""
    kind = step[0]
    if kind == "get":
        tree.get(step[1])
    elif kind == "upsert":
        tree.upsert(step[1], step[2])
    elif kind == "delete":
        tree.delete(step[1])
    elif kind == "idle":
        tree.machine.clock.advance(step[1])
    elif kind == "evict_idle":
        tree.cache.evict_idle_pages()
    elif kind == "checkpoint":
        tree.checkpoint()
    elif kind == "squeeze":
        # What the calibration and experiment harnesses do: shrink the
        # budget under a warm cache, so one call walks many victims.
        budget = tree.cache.capacity_bytes
        tree.cache.capacity_bytes = budget // step[1]
        tree.cache.ensure_capacity()
        tree.cache.capacity_bytes = budget
    elif kind == "gc":
        tree.collect_garbage()
    else:
        tree.checkpoint()
        with mock.patch("repro.bwtree.tree.PageCache", cache_class):
            tree = with_tiny_ti(tree.simulate_crash_and_recover())
    return tree
