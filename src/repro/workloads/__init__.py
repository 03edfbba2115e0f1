"""Workload generation: key distributions and YCSB-style mixes."""

from .distributions import (
    CHOOSERS,
    make_chooser,
)
from .ycsb import (
    Operation,
    OpKind,
    RunStats,
    WorkloadGenerator,
    WorkloadSpec,
    apply_operations,
    partition_operations,
    shard_balance,
)

__all__ = [
    "CHOOSERS",
    "make_chooser",
    "WorkloadSpec",
    "WorkloadGenerator",
    "Operation",
    "OpKind",
    "RunStats",
    "apply_operations",
    "partition_operations",
    "shard_balance",
]
