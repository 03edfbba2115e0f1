"""I/O execution paths (paper Section 7.1.1).

The paper's headline optimization is moving the I/O path out of the kernel
with SPDK-style user-level I/O, cutting the SS/MM execution ratio R from ~9x
to ~5.8x.  We model both paths as bundles of CPU charges applied around each
simulated device access; the ratio between the resulting per-operation sums
is where our R comes from (it is *derived*, via Equation (3), in
``repro.core.calibration`` — never hard-coded).
"""

from __future__ import annotations

import enum

from .cpu import CpuModel


class IoPathKind(enum.Enum):
    """Which software stack an I/O traverses."""

    USER_LEVEL = "user-level"    # SPDK-style polling from user space
    KERNEL = "kernel"            # conventional syscall-based path


class IoPathModel:
    """Charges the CPU for the software side of one device access.

    The device's own service time lives in :class:`~repro.hardware.ssd`.
    Here we charge only what the *processor* spends: submission, completion
    handling, the context-switch pair that parks the worker during device
    latency, and (kernel path only) the protection-boundary crossing and the
    kernel<->user buffer copy.
    """

    def __init__(self, kind: IoPathKind, cpu: CpuModel) -> None:
        self.kind = kind
        self.cpu = cpu
        # Each user-level half is a fixed run of two charges, priced once,
        # with the total those charges return (``0.0 + step + switch``).
        # The halves stay two calls: one ``charge_complete`` per round
        # trip is how a traced run counts round trips.
        costs = cpu.costs
        self._submit_user = cpu.plan("io_path", "io_submit_user",
                                     "context_switch")
        self._submit_user_us = (0.0 + costs.io_submit_user
                                + costs.context_switch)
        self._complete_user = cpu.plan("io_path", "io_complete_user",
                                       "context_switch")
        self._complete_user_us = (0.0 + costs.io_complete_user
                                  + costs.context_switch)

    def charge_submit(self, nbytes: int) -> float:
        """Charge the CPU for issuing one I/O of ``nbytes``; returns us."""
        if self.kind is IoPathKind.USER_LEVEL:
            self.cpu.bill(self._submit_user)
            return self._submit_user_us
        charged = 0.0
        charged += self.cpu.charge("io_submit_kernel", category="io_path")
        charged += self.cpu.charge(
            "kernel_copy_per_byte", nbytes, category="io_path"
        )
        # The worker yields while the device is busy (on the user-level
        # path too: its plan's second step).
        charged += self.cpu.charge("context_switch", category="io_path")
        return charged

    def charge_complete(self, nbytes: int) -> float:
        """Charge the CPU for harvesting one completion; returns us."""
        if self.kind is IoPathKind.USER_LEVEL:
            self.cpu.bill(self._complete_user)
            return self._complete_user_us
        charged = 0.0
        charged += self.cpu.charge("io_complete_kernel", category="io_path")
        charged += self.cpu.charge("context_switch", category="io_path")
        return charged

    def charge_round_trip(self, nbytes: int) -> float:
        """Charge submit + complete for one I/O; returns total us."""
        return self.charge_submit(nbytes) + self.charge_complete(nbytes)
