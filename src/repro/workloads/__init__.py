"""Workload generation: key distributions and YCSB-style mixes."""

from .distributions import (
    CHOOSERS,
    KeyChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
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
