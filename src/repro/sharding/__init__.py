"""Hash-partitioned multi-shard execution over independent engines.

A :class:`ShardedEngine` runs N :class:`~repro.deuteronomy.engine.
DeuteronomyEngine` shards behind a stable hash router; batched requests
scatter once into per-shard sub-batches, ride each shard's group-commit
path, and gather back in input order.  See ``router`` for the
partitioning contract and ``engine`` for the fleet semantics.
One :class:`~repro.observability.spans.Tracer` per shard machine
(``repro trace`` attaches them) reconciles with ``stats()['fleet']``
exactly: the fleet totals are the shard-order sums.
"""

from .engine import ShardedEngine
from .router import ShardRouter, fnv1a_64

__all__ = ["ShardedEngine", "ShardRouter", "fnv1a_64"]
