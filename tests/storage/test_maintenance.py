"""Maintenance costs what it writes.

A checkpoint walks the mapping table once and sizes its image in that
pass; cleaning a segment finds each live image's page from the image
(``image.page_id``), not from a reverse map of every flash address.
The frame guards pin both as exact counts on a small seeded tree.
"""

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine
from repro.workloads import OpKind, WorkloadGenerator, WorkloadSpec

from ..frames import count_calls


def seeded_tree() -> BwTree:
    """2,000 YCSB records on 64 KiB segments, checkpointed, then 2,000
    updates and a second checkpoint: the first segments are part dead."""
    generator = WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=2000,
                                                      seed=7))
    tree = BwTree(Machine.paper_default(),
                  BwTreeConfig(segment_bytes=1 << 16))
    tree.bulk_load(generator.load_items())
    tree.checkpoint()
    for op in generator.operations(4000):
        if op.kind is OpKind.UPDATE:
            tree.upsert(op.key, op.value)
    tree.checkpoint()
    return tree


def test_a_checkpoint_with_no_dirty_pages_walks_the_table_once_per_loop():
    """Per page, the two dirty-check property frames of each of the two
    walks (``BwTree.checkpoint``'s flush loop and ``write_checkpoint``'s
    guard); then 23 fixed frames to append, flush and invalidate the
    image (24 while the SSD observed each access in a latency
    histogram).  Its size is a field, so the image is never re-summed, and
    three records are built: the image, its address and the segment."""
    tree = seeded_tree()
    pages = len(tree.mapping_table)
    calls = count_calls(tree.checkpoint)
    assert calls["mapping_table.dirty"] == 2 * pages
    assert calls["pages.has_unflushed_changes"] == 2 * pages
    assert calls["cache.flush_page"] == 0
    assert calls["checkpoint.write_checkpoint"] == 1
    assert sum(calls.frames.values()) == 4 * pages + 23
    assert calls["<string>.__init__"] == 3


def test_cleaning_a_segment_hashes_no_flash_address():
    """Cleaning a part-dead segment costs 9 frames plus 5 per live
    image (its address, its copy's ``append`` with the copy charge and
    the copy's address, and the source's ``invalidate``; 10 plus 5
    while the SSD observed each access in a latency histogram), and two
    ``FlashAddr`` records per image.  Each image's page is found
    through ``image.page_id``: no reverse map of the mapping table, so
    no ``FlashAddr`` is hashed (a generated ``<string>.__hash__``) and
    ``MappingTable.get`` does not run."""
    tree = seeded_tree()
    store = tree.store
    part_dead = [segment_id for segment_id, info in store.segments.items()
                 if info.occupancy < 1]
    victim = max(part_dead, key=lambda s: len(store.live_images(s)))
    live = len(store.live_images(victim))
    assert live > 2
    calls = count_calls(lambda: tree.gc.clean_segment(victim,
                                                      defer_drop=True))
    assert "<string>.__hash__" not in calls
    assert "mapping_table.get" not in calls
    assert calls["log_store.append"] == live
    assert sum(calls.frames.values()) == 9 + 5 * live
    assert calls["<string>.__init__"] == 2 * live
