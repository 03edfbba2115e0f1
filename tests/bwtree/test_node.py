"""Inner-node invariants, and routing through them.

Routing has one definition, the tree's descent, so the routing and
search-step assertions below descend a tree whose index is the node
under test.
"""

import pytest

from repro.bwtree import BwTree, InnerNode
from repro.hardware import CostTable, Machine
from repro.observability.whatif import ChargeRecorder

#: Prices under which a descent's charge stream reads as its search
#: steps: the pointer chase and the mapping-table lookup cost nothing,
#: and each binary-search step costs exactly one.
COUNTING = CostTable().with_overrides(pointer_chase=0.0,
                                      page_binary_search_step=1.0,
                                      mapping_table_lookup=0.0)


def node(keys, children):
    return InnerNode(-1, keys, children)


def descend(routing, key):
    """``(leaf id, binary-search steps charged)`` when ``routing`` is the
    root of a tree's index and the tree descends to ``key``."""
    tree = BwTree(Machine(cores=1, cost_table=COUNTING))
    while tree.mapping_table.next_page_id <= max(routing.children):
        tree._allocate_leaf()
    tree._inners[routing.node_id] = routing
    tree.root_id = routing.node_id
    tree.machine.cpu.sink = recorder = ChargeRecorder()
    leaf = tree._descend(key).page_id
    # One search per level, one level: a chase, the search, the lookup.
    chase, steps, lookup = (amount for __, amount in recorder.events)
    assert chase == lookup == 0.0
    return leaf, steps


def route(routing, key):
    return descend(routing, key)[0]


def test_requires_negative_id():
    with pytest.raises(ValueError):
        InnerNode(0, [b"m"], [1, 2])


def test_children_count_invariant():
    with pytest.raises(ValueError):
        node([b"m"], [1])
    with pytest.raises(ValueError):
        node([b"m"], [1, 2, 3])


def test_keys_strictly_sorted():
    with pytest.raises(ValueError):
        node([b"m", b"m"], [1, 2, 3])
    with pytest.raises(ValueError):
        node([b"n", b"m"], [1, 2, 3])


def test_child_for_routes_half_open_ranges():
    routing = node([b"g", b"m"], [1, 2, 3])
    assert route(routing, b"a") == 1
    assert route(routing, b"g") == 2   # separator belongs to the right
    assert route(routing, b"k") == 2
    assert route(routing, b"m") == 3
    assert route(routing, b"z") == 3


def test_child_index_and_missing_child():
    routing = node([b"g"], [1, 2])
    assert routing.child_index(2) == 1
    with pytest.raises(KeyError):
        routing.child_index(99)


def test_insert_separator_keeps_order():
    routing = node([b"g", b"s"], [1, 2, 3])
    routing.insert_separator(b"m", 9)
    assert routing.keys == [b"g", b"m", b"s"]
    assert routing.children == [1, 2, 9, 3]
    assert route(routing, b"m") == 9
    assert route(routing, b"l") == 2


def test_insert_duplicate_separator_rejected():
    routing = node([b"g"], [1, 2])
    with pytest.raises(ValueError):
        routing.insert_separator(b"g", 9)


def test_remove_middle_child_merges_range_left():
    routing = node([b"g", b"m"], [1, 2, 3])
    separator = routing.remove_child(2)
    assert separator == b"g"
    assert routing.children == [1, 3]
    # keys in [g, m) now route to child 1's successor range:
    assert route(routing, b"h") == 1


def test_remove_leftmost_child():
    routing = node([b"g", b"m"], [1, 2, 3])
    separator = routing.remove_child(1)
    assert separator is None
    assert routing.children == [2, 3]
    assert route(routing, b"a") == 2


def test_remove_only_sibling_leaves_no_keys():
    routing = node([b"g"], [1, 2])
    routing.remove_child(2)
    assert routing.keys == []
    assert routing.children == [1]
    assert descend(routing, b"z") == (1, 1)


def test_split_pushes_middle_key_up():
    routing = node([b"b", b"d", b"f", b"h"], [1, 2, 3, 4, 5])
    push_up, right = routing.split(-99)
    assert push_up == b"f"
    assert routing.keys == [b"b", b"d"]
    assert routing.children == [1, 2, 3]
    assert right.keys == [b"h"]
    assert right.children == [4, 5]
    assert right.node_id == -99


def test_split_too_small_rejected():
    with pytest.raises(ValueError):
        node([b"m"], [1, 2]).split(-2)


def test_size_bytes_counts_keys_and_children():
    small = node([b"a"], [1, 2])
    big = node([b"a", b"bb"], [1, 2, 3])
    assert big.size_bytes > small.size_bytes


def test_search_steps_logarithmic():
    assert descend(node([], [1]), b"a")[1] == 1
    assert descend(node([b"a"], [1, 2]), b"a")[1] == 1
    wide = InnerNode(-1, [b"k%03d" % i for i in range(100)],
                     list(range(101)))
    assert descend(wide, b"k050") == (51, 7)
