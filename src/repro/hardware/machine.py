"""The simulated machine: cores + DRAM + SSD + an I/O path, with reporting.

A :class:`Machine` is the substrate every store in this repo runs on.  It
bundles the virtual clock, the calibrated CPU model, the simulated SSD, DRAM
accounting, and the chosen I/O software path, and it turns accumulated
accounting into the throughput numbers the paper's analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..frozen import check_bounds
from .clock import VirtualClock
from .cpu import CostTable, CpuModel
from .dram import DramModel
from .iopath import IoPathKind, IoPathModel
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

    BOUNDS = {"cores": CpuModel.BOUNDS["cores"]}

    def __init__(
        self,
        cores: int = 4,
        cost_table: CostTable | None = None,
        ssd_spec: SsdSpec | None = None,
        io_path: IoPathKind = IoPathKind.USER_LEVEL,
    ) -> None:
        check_bounds(Machine, cores=cores)
        self.clock = VirtualClock()
        self.cpu = CpuModel(cores, cost_table, self.clock)
        self.ssd = SimulatedSsd(ssd_spec)
        self.dram = DramModel()
        self.io_path = IoPathModel(io_path, self.cpu)
        #: User-visible store operations begun since the last reset: a
        #: plain attribute; the TC's and the Bw-tree's guarded paths bump
        #: it in place, everything else calls :meth:`begin_operation`.
        self.operations = 0
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
        """Install a tracer: spans open on the hot path, and the tracer
        becomes the CPU charge sink so every charge is bucketed into
        its span by category.  Attach right after
        :meth:`reset_accounting` so the tracer's totals reconcile
        bit-for-bit with :meth:`summary`."""
        self.tracer = tracer
        self.cpu.sink = tracer

    def detach_tracer(self) -> None:
        """Remove the tracer; span sites go back to one ``is None``
        check each."""
        self.tracer = None
        self.cpu.sink = None

    def latency_window(self) -> "tuple[float, float]":
        """Snapshot (cpu busy us, device service us) to bracket one op.

        An operation's latency is the sum of the two deltas across it:
        execution plus device service time.  The paper's cost metric
        leaves waiting time out; latency is measured beside it for the
        Section 8.1 "time-value" discussion.  Reads the SSD's O(1)
        running service-time scalar, not ``latencies.total`` (an O(n)
        fsum) — this runs once per operation on the hot path, so both
        reads are plain attributes and the call is one frame.
        """
        return self.cpu.busy_us, self.ssd.service_us_total

    # --- construction helpers ---------------------------------------------

    @classmethod
    def paper_default(
        cls,
        cores: int = 4,
        io_path: IoPathKind = IoPathKind.USER_LEVEL,
    ) -> "Machine":
        """The paper's server: 4 cores, Samsung-class SSD, SPDK I/O path."""
        return cls(
            cores=cores,
            cost_table=CostTable(),
            ssd_spec=SsdSpec(),
            io_path=io_path,
        )

    # --- operation accounting ---------------------------------------------

    def begin_operation(self) -> None:
        """Mark the start of one user-visible store operation."""
        self.operations += 1

    def summary(self) -> RunSummary:
        """Summarize everything charged since the last reset."""
        return RunSummary(
            operations=self.operations,
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
        self.operations = 0
