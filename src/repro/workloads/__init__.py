"""Workload generation: key distributions and YCSB-style mixes."""

from .distributions import (
    HotspotChooser,
    KeyChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    access_interval_seconds,
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
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "HotspotChooser",
    "LatestChooser",
    "make_chooser",
    "access_interval_seconds",
    "WorkloadSpec",
    "WorkloadGenerator",
    "Operation",
    "OpKind",
    "RunStats",
    "apply_operations",
    "partition_operations",
    "shard_balance",
]
