"""repro: reproduction of Lomet, "Cost/Performance in Modern Data Stores:
How Data Caching Systems Succeed" (DaMoN'18 / ICDE'19).

The package has two halves:

* **systems** — working implementations of everything the paper measures:
  a Bw-tree over a LLAMA-style log-structured store (:mod:`repro.bwtree`,
  :mod:`repro.storage`), MassTree (:mod:`repro.masstree`), a RocksDB-style
  LSM tree (:mod:`repro.lsm`), and Deuteronomy's transaction component
  (:mod:`repro.deuteronomy`) — all running on a calibrated virtual-time
  hardware simulator (:mod:`repro.hardware`);
* **analysis** — the paper's cost/performance model (:mod:`repro.core`):
  mixed-workload throughput (Eq 1-3), operation pricing (Eq 4-5), the
  updated five-minute rule (Eq 6), and the main-memory comparison
  (Eq 7-8), plus experiment drivers for every figure (:mod:`repro.bench`).

Quickstart::

    from repro import Machine, BwTree, BwTreeConfig
    machine = Machine.paper_default(cores=4)
    tree = BwTree(machine, BwTreeConfig(cache_capacity_bytes=64 << 20))
    tree.upsert(b"hello", b"world")
    assert tree.get(b"hello") == b"world"
    print(machine.summary().core_us_per_op)
"""

from .bwtree import BwTree, BwTreeConfig, OpResult
from .core import (
    Advisor,
    CostCatalog,
    CostLine,
    MixtureModel,
    OperationCostModel,
    breakeven_interval_seconds,
    breakeven_report,
)
from .deuteronomy import DeuteronomyEngine, TransactionAborted
from .hardware import CostTable, IoPathKind, Machine, RunSummary, SsdSpec
from .lsm import LsmConfig, LsmTree
from .masstree import MassTree
from .workloads import WorkloadGenerator, WorkloadSpec, apply_operations

__all__ = [
    "Machine",
    "RunSummary",
    "CostTable",
    "SsdSpec",
    "IoPathKind",
    "BwTree",
    "BwTreeConfig",
    "OpResult",
    "MassTree",
    "LsmTree",
    "LsmConfig",
    "DeuteronomyEngine",
    "TransactionAborted",
    "CostCatalog",
    "OperationCostModel",
    "MixtureModel",
    "CostLine",
    "Advisor",
    "breakeven_report",
    "breakeven_interval_seconds",
    "WorkloadSpec",
    "WorkloadGenerator",
    "apply_operations",
]

__version__ = "1.0.0"
