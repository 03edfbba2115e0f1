"""Hash partitioning and scatter/gather mechanics."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.sharding.router as router_module
from repro.sharding import ShardRouter, fnv1a_64


class TestHash:
    def test_fnv1a_known_vectors(self):
        # Reference values for the 64-bit FNV-1a parameters.
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_stable_across_router_instances(self):
        keys = [b"user%010d" % index for index in range(500)]
        first, second = ShardRouter(8), ShardRouter(8)
        assert [first.shard_for(k) for k in keys] \
            == [second.shard_for(k) for k in keys]

    def test_single_shard_owns_everything(self):
        router = ShardRouter(1)
        assert all(router.shard_for(b"k%d" % i) == 0 for i in range(100))

    def test_distribution_roughly_even(self):
        router = ShardRouter(4)
        counts = [0] * 4
        for index in range(8000):
            counts[router.shard_for(b"user%010d" % index)] += 1
        for count in counts:
            assert 0.8 * 2000 < count < 1.2 * 2000

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestScatterGather:
    def test_scatter_preserves_order_within_shard(self):
        router = ShardRouter(3)
        keys = [b"key%04d" % index for index in range(60)]
        ops = [("get", key, None) for key in keys]
        per_shard, positions = router.scatter(ops, keys)
        assert sum(len(sub) for sub in per_shard) == 60
        for shard, (sub, posns) in enumerate(zip(per_shard, positions)):
            assert posns == sorted(posns)
            assert [ops[p] for p in posns] == sub
            assert all(router.shard_for(op[1]) == shard for op in sub)

    def test_gather_inverts_scatter(self):
        router = ShardRouter(4)
        items = [b"item%03d" % index for index in range(40)]
        per_shard, positions = router.scatter(items, items)
        # Identity "work" per shard: results are the items themselves.
        assert router.gather(len(items), per_shard, positions) == items

    def test_gather_rejects_result_count_mismatch(self):
        router = ShardRouter(2)
        with pytest.raises(ValueError):
            router.gather(2, [[1], []], [[0, 1], []])

    def test_empty_batch(self):
        router = ShardRouter(4)
        per_shard, positions = router.scatter([], [])
        assert all(not sub for sub in per_shard)
        assert router.gather(0, per_shard, positions) == []


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.binary(min_size=1, max_size=24), max_size=40),
       num_shards=st.integers(min_value=1, max_value=16),
       bound=st.integers(min_value=1, max_value=8))
def test_the_route_memo_never_changes_a_route(keys, num_shards, bound):
    """``shard_for`` and ``scatter`` route every key to ``fnv1a_64(key) %
    n``: on first calls (memo misses), repeated calls (hits), fresh
    routers, and with a memo bound the keys overflow, so it restarts."""
    expected = [fnv1a_64(key) % num_shards for key in keys]
    with mock.patch.object(router_module, "ROUTE_MEMO_ENTRIES", bound):
        router = ShardRouter(num_shards)
        for __ in range(2):
            assert [router.shard_for(key) for key in keys] == expected
            per_shard, positions = router.scatter(keys, keys)
            routed = [None] * len(keys)
            for shard, posns in enumerate(positions):
                for position in posns:
                    routed[position] = shard
            assert routed == expected
            assert len(router._memo) <= bound
        fresh = ShardRouter(num_shards)
        assert ([fresh.shard_for(key) for key in reversed(keys)]
                == expected[::-1])
