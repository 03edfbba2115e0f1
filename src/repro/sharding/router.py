"""Hash partitioning and scatter/gather for the sharded engine.

The keyspace is partitioned by a process-independent hash (FNV-1a over
the key bytes, then modulo the shard count), so a key's owning shard is
stable across runs, machines and Python hash randomization — a router
rebuilt after a crash routes exactly as its predecessor did, which is
what makes per-shard recovery sufficient to recover the fleet.

Scatter splits a request batch into per-shard sub-batches while
remembering each element's position in the input; gather writes the
per-shard results back into those positions, so callers see one flat
result list in input order regardless of how the batch was partitioned.

The hash is pure-Python and hot keys recur in every batch, so a router
remembers each key's shard in a plain dict of at most
:data:`ROUTE_MEMO_ENTRIES` keys (cleared when full).  The memo only
caches ``fnv1a_64(key) % num_shards``: routing is the same with or
without it, which is all a recovered router needs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_FNV64_MASK = 0xFFFFFFFFFFFFFFFF

#: Keys a router remembers the shard of; the memo starts over when full.
ROUTE_MEMO_ENTRIES = 1 << 16


def fnv1a_64(key: bytes) -> int:
    """64-bit FNV-1a: stable, dependency-free, fine mixing for short keys."""
    digest = _FNV64_OFFSET
    for byte in key:
        digest = ((digest ^ byte) * _FNV64_PRIME) & _FNV64_MASK
    return digest


class ShardRouter:
    """Maps keys to shards and splits/merges batches accordingly."""

    __slots__ = ("num_shards", "_memo")

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self._memo: Dict[bytes, int] = {}

    def shard_for(self, key: bytes) -> int:
        """The shard owning ``key``; stable across processes and runs."""
        shard = self._memo.get(key)
        if shard is None:
            shard = self._route(key)
        return shard

    def _route(self, key: bytes) -> int:
        """Hash ``key`` to its shard and remember the answer."""
        shard = fnv1a_64(key) % self.num_shards
        memo = self._memo
        if len(memo) >= ROUTE_MEMO_ENTRIES:
            memo.clear()
        memo[key] = shard
        return shard

    def scatter(
        self, items: Sequence[T], keys: Sequence[bytes],
    ) -> Tuple[List[List[T]], List[List[int]]]:
        """Split ``items`` into per-shard sub-batches, preserving order.

        ``keys[i]`` is the key of ``items[i]``.  Returns
        ``(per_shard_items, per_shard_positions)`` where the positions
        record where each sub-batch element sat in the input, for
        :meth:`gather` to invert the split.
        """
        per_shard: List[List[T]] = [[] for __ in range(self.num_shards)]
        positions: List[List[int]] = [[] for __ in range(self.num_shards)]
        memo = self._memo
        for position, key in enumerate(keys):
            shard = memo.get(key)
            if shard is None:
                shard = self._route(key)
            per_shard[shard].append(items[position])
            positions[shard].append(position)
        return per_shard, positions

    @staticmethod
    def gather(
        total: int,
        per_shard_results: Sequence[Sequence[R]],
        per_shard_positions: Sequence[Sequence[int]],
    ) -> List[R]:
        """Merge per-shard result lists back into input order."""
        merged: List[R] = [None] * total   # type: ignore[list-item]
        for results, positions in zip(per_shard_results,
                                      per_shard_positions):
            if len(results) != len(positions):
                raise ValueError(
                    f"shard returned {len(results)} results for "
                    f"{len(positions)} requests"
                )
            for position, result in zip(positions, results):
                merged[position] = result
        return merged
