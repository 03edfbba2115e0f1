"""``DataPageState.consolidate`` merges deltas into the sorted base.

The merge replaced a fold that built a dict of every base record, sorted
all keys and re-indexed the result; :func:`reference_fold` keeps that
fold, and every consolidation must equal it record for record, key index
for key index and byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DataPageState, Record
from repro.storage.pages import RECORD_OVERHEAD_BYTES, full_image_size_bytes

# Few distinct keys, so chains repeat keys, delete present and absent
# ones and upsert after a delete.
KEYS = st.text(alphabet="abcd", min_size=1, max_size=2).map(str.encode)
VALUES = st.binary(max_size=12)
TIMESTAMPS = st.integers(0, 99)

BASES = st.dictionaries(KEYS, st.tuples(VALUES, TIMESTAMPS), max_size=12).map(
    lambda contents: [Record(key, value, ts)
                      for key, (value, ts) in sorted(contents.items())])
# A delta is a ``Record``; a delete is one whose value is ``None``.
DELTAS = st.builds(Record, KEYS, st.one_of(VALUES, st.none()), TIMESTAMPS)


def reference_fold(base, deltas):
    """The dict-and-sort fold: ``(records, size)`` for ``base`` with
    ``deltas`` (newest first, as a page holds them) applied."""
    merged = {record.key: record for record in base}
    size = full_image_size_bytes(base)
    for delta in reversed(deltas):
        key = delta.key
        old = merged.get(key)
        if delta.value is not None:
            merged[key] = Record(key, delta.value, delta.timestamp)
            if old is None:
                size += RECORD_OVERHEAD_BYTES + len(key) + len(delta.value)
            else:
                size += len(delta.value) - len(old.value)
        elif old is not None:
            del merged[key]
            size -= RECORD_OVERHEAD_BYTES + len(key) + len(old.value)
    return [merged[key] for key in sorted(merged)], size


@settings(max_examples=300, deadline=None)
@given(base=BASES, chain=st.lists(DELTAS, max_size=10))
def test_consolidation_equals_the_dict_and_sort_fold(base, chain):
    state = DataPageState(1, base=list(base))
    for delta in chain:
        state.prepend_delta(delta)
    expected, expected_size = reference_fold(base, list(state.deltas))

    size = state.consolidate()

    assert [(r.key, r.value, r.timestamp) for r in state.base] == [
        (r.key, r.value, r.timestamp) for r in expected]
    assert state._base_keys == [r.key for r in expected]
    assert size == state.base_size_bytes == expected_size
    assert full_image_size_bytes(state.base) == expected_size
    # A record no delta touched is the base's own object.
    touched = {delta.key for delta in chain}
    untouched = [r for r in base if r.key not in touched]
    assert all(any(r is kept for kept in state.base) for r in untouched)
    # Each surviving upsert is the newest delta object itself, not a copy.
    newest = {delta.key: delta for delta in chain}
    upserts = [delta for delta in newest.values() if delta.value is not None]
    assert all(any(delta is kept for kept in state.base) for delta in upserts)
    assert state.deltas == [] and state.delta_size_bytes == 0
