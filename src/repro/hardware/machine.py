"""The simulated machine: cores + DRAM + SSD + an I/O path, with reporting.

A :class:`Machine` is the substrate every store in this repo runs on.  It
bundles the virtual clock, the calibrated CPU model, the simulated SSD, DRAM
accounting, and the chosen I/O software path, and it turns accumulated
accounting into the throughput numbers the paper's analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .clock import VirtualClock
from .cpu import CostTable, CpuModel
from .dram import DramModel
from .iopath import IoPathKind, IoPathModel
from .metrics import Histogram
from .ssd import SimulatedSsd, SsdSpec

if TYPE_CHECKING:  # deliberate: hardware stays import-independent of faults
    from ..faults.plan import FaultInjector
    from ..observability.spans import Tracer


@dataclass(frozen=True)
class RunSummary:
    """Throughput accounting for a span of simulated operations.

    The paper's performance metric is operations per second for a
    processor-bound workload (Section 2.1); ``io_bound`` flags runs where the
    SSD, not the CPU, limited throughput — the regime the paper excludes
    from its R derivation.
    """

    operations: int
    cpu_busy_seconds: float
    ssd_busy_seconds: float
    cores: int
    ssd_ios: float

    @property
    def cpu_elapsed_seconds(self) -> float:
        """Elapsed time if the CPU were the only bottleneck."""
        return self.cpu_busy_seconds / self.cores

    @property
    def elapsed_seconds(self) -> float:
        """Virtual elapsed time: the slower of CPU and SSD."""
        return max(self.cpu_elapsed_seconds, self.ssd_busy_seconds)

    @property
    def io_bound(self) -> bool:
        return self.ssd_busy_seconds > self.cpu_elapsed_seconds

    @property
    def throughput_ops_per_sec(self) -> float:
        if self.operations == 0 or self.elapsed_seconds == 0.0:
            return 0.0
        return self.operations / self.elapsed_seconds

    @property
    def core_us_per_op(self) -> float:
        """Average single-core execution microseconds per operation."""
        if self.operations == 0:
            return 0.0
        return self.cpu_busy_seconds * 1e6 / self.operations

    @property
    def ios_per_op(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.ssd_ios / self.operations


class Machine:
    """A simulated server with calibrated component models."""

    def __init__(
        self,
        cores: int = 4,
        cost_table: CostTable | None = None,
        ssd_spec: SsdSpec | None = None,
        io_path: IoPathKind = IoPathKind.USER_LEVEL,
        dram_capacity_bytes: int | None = None,
    ) -> None:
        self.clock = VirtualClock()
        self.cpu = CpuModel(cores, cost_table, self.clock)
        self.ssd = SimulatedSsd(ssd_spec)
        self.dram = DramModel(dram_capacity_bytes)
        self.io_path = IoPathModel(io_path, self.cpu)
        # Per-operation latency (execution + device service time).  The
        # paper's cost metric deliberately excludes waiting time; latency
        # is tracked separately for the Section 8.1 "time-value"
        # discussion.
        self.op_latencies = Histogram("op_latency_us")
        self._ops_started = 0
        # Optional fault injector shared by every component running on
        # this machine (or every shard machine of a fleet).  ``None``
        # keeps the hot paths at a single attribute check per site.
        self.faults: FaultInjector | None = None
        # Optional trace-span tracer (repro.observability); installed via
        # :meth:`attach_tracer`, same single-attribute-check pattern: a
        # span site opens and closes a span only when this is not None.
        self.tracer: Tracer | None = None

    # --- tracing -----------------------------------------------------------

    def attach_tracer(self, tracer: Tracer) -> None:
        """Install a tracer: spans open on the hot path.  A *detailed*
        tracer additionally becomes the CPU charge sink so every charge
        is mirrored per category; the default tracer costs nothing per
        charge.  Attach right after :meth:`reset_accounting` so the
        tracer's totals reconcile bit-for-bit with :meth:`summary`."""
        self.tracer = tracer
        self.cpu.sink = tracer if tracer.detailed else None

    def detach_tracer(self) -> None:
        """Remove the tracer; span sites go back to one ``is None``
        check each."""
        self.tracer = None
        self.cpu.sink = None

    def latency_window(self) -> "tuple[float, float]":
        """Snapshot (cpu busy us, device service us) to bracket one op.

        Reads the SSD's O(1) running service-time scalar, not
        ``latencies.total`` (an O(n) fsum) — this runs once per
        operation on the hot path.
        """
        return self.cpu.busy_us, self.ssd.service_us_total

    def observe_latency(self, window: "tuple[float, float]") -> float:
        """Record one operation's latency since ``window``; returns us."""
        cpu_before, service_before = window
        latency = (self.cpu.busy_us - cpu_before) \
            + (self.ssd.service_us_total - service_before)
        self.op_latencies.observe(latency)
        return latency

    # --- construction helpers ---------------------------------------------

    @classmethod
    def paper_default(
        cls,
        cores: int = 4,
        io_path: IoPathKind = IoPathKind.USER_LEVEL,
        dram_capacity_bytes: int | None = None,
    ) -> "Machine":
        """The paper's server: 4 cores, Samsung-class SSD, SPDK I/O path."""
        return cls(
            cores=cores,
            cost_table=CostTable(),
            ssd_spec=SsdSpec(),
            io_path=io_path,
            dram_capacity_bytes=dram_capacity_bytes,
        )

    # --- operation accounting ---------------------------------------------

    def begin_operation(self) -> None:
        """Mark the start of one user-visible store operation."""
        self._ops_started += 1

    @property
    def operations(self) -> int:
        return self._ops_started

    def summary(self) -> RunSummary:
        """Summarize everything charged since the last reset."""
        return RunSummary(
            operations=self._ops_started,
            cpu_busy_seconds=self.cpu.busy_seconds,
            ssd_busy_seconds=self.ssd.busy_seconds,
            cores=self.cpu.cores,
            ssd_ios=self.ssd.total_ios,
        )

    def reset_accounting(self) -> None:
        """Zero CPU/SSD traffic counters and the op count.

        Resident state (DRAM footprints, flash contents) is preserved so a
        warmed-up store can be measured over a clean window — the way the
        paper measures after the I/O path is no longer cold.
        """
        self.cpu.reset()
        self.ssd.reset()
        self.op_latencies.reset()
        self._ops_started = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(cores={self.cpu.cores}, io_path={self.io_path.kind}, "
            f"ops={self._ops_started})"
        )
