"""Virtual-time hardware models underlying every simulated store.

See DESIGN.md Section 2 for why the reproduction runs on a cost-accounted
simulator instead of wall-clock timing: operation *counts* come from real
data structures, per-primitive *prices* come from the calibrated
:class:`~repro.hardware.cpu.CostTable`.

Observability hooks live on :class:`~repro.hardware.machine.Machine`:
``attach_tracer`` installs a :class:`~repro.observability.spans.Tracer`
as ``machine.tracer``, and each span site opens a per-operation
cost-attribution span through it only when it is not ``None`` (one
attribute check when untraced).
"""

from .clock import VirtualClock
from .cpu import CostTable, CpuModel
from .dram import DramFullError, DramModel
from .iopath import IoPathKind, IoPathModel
from .logdevice import LogDevice
from .machine import Machine, RunSummary
from .metrics import CounterSet, Histogram
from .ssd import SimulatedSsd, SsdFullError, SsdSpec
from .tiers import StorageHierarchy, TierSpec

__all__ = [
    "VirtualClock",
    "CostTable",
    "CpuModel",
    "DramModel",
    "DramFullError",
    "IoPathKind",
    "IoPathModel",
    "LogDevice",
    "Machine",
    "RunSummary",
    "CounterSet",
    "Histogram",
    "SimulatedSsd",
    "SsdSpec",
    "SsdFullError",
    "StorageHierarchy",
    "TierSpec",
]
