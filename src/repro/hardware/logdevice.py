"""Log device: a virtual-time ack queue over a simulated SSD.

The synchronous commit path treats a log write as instantaneous at the
device level: ``SimulatedSsd.write`` adds busy time and the caller moves
on, already durable.  An asynchronous commit pipeline needs the half the
paper's throughput model deliberately omits — *when* the device
acknowledges a write — because durability (and therefore commit-future
resolution) happens at the ack, not at the submit.

:class:`LogDevice` wraps a :class:`~repro.hardware.ssd.SimulatedSsd`
with a FIFO service queue on the machine's virtual clock: a submitted
write begins service when the device frees up, occupies it for the
larger of the per-IO and bandwidth terms (the same service model the
SSD's busy-time accounting uses), and acks ``ack_latency_us`` after
service completes.  Ack latency is a *costed hardware axis*: a cheap
shared log device acks late and queues behind every shard (the
five-minute-rule revisit prices this trade against its capital cost).

Topology is expressed by what the device wraps:

* **colocated** (default) — wraps the machine's own data SSD; every
  submitted write lands in the machine's normal busy/IO accounting and
  trace reconciliation is untouched;
* **dedicated** — wraps a private :class:`SimulatedSsd`; its busy time
  is reported via :meth:`elapsed_contribution` so the engine can fold a
  separate log device into virtual elapsed time;
* **shared** — several shards each hold their *own* ``LogDevice`` queue
  over one shared :class:`SimulatedSsd`; per-queue accounting stays
  deterministic per shard clock, and fleet elapsed takes the shared
  device's total busy seconds as an additional floor.
"""

from __future__ import annotations

from .clock import VirtualClock
from .ssd import SimulatedSsd

#: Microseconds from the end of a write's service to its ack.
ACK_LATENCY_US = 25.0


class LogDevice:
    """FIFO ack-queue view of one SSD used as a commit log device."""

    def __init__(
        self,
        ssd: SimulatedSsd,
        clock: VirtualClock,
        ack_latency_us: float = ACK_LATENCY_US,
        colocated: bool = True,
    ) -> None:
        if ack_latency_us < 0.0:
            raise ValueError(
                f"ack latency cannot be negative, got {ack_latency_us}"
            )
        self.ssd = ssd
        self.clock = clock
        self.ack_latency_us = ack_latency_us
        #: Whether ``ssd`` is the machine's data SSD (write busy time is
        #: then already part of the machine summary's elapsed floor).
        self.colocated = colocated
        self._free_at_s = 0.0
        self.submitted_writes = 0
        self.submitted_bytes = 0
        #: Service seconds this queue's own submissions occupied the
        #: device for (== the busy time this device contributed).
        self.service_seconds = 0.0
        #: Virtual microseconds submissions spent queued behind earlier
        #: writes before service began.
        self.queue_wait_us = 0.0

    def submit_write(self, nbytes: int) -> float:
        """Submit one log write; returns the virtual ack time (seconds).

        The device write (busy time, counters) happens at submit — the
        data is on its way — but durability must wait for the returned
        ack time.  Service is FIFO: a write queues behind the previous
        one when the device is still busy at submit.
        """
        now = self.clock.now
        self.ssd.write(nbytes)
        start = max(now, self._free_at_s)
        self.queue_wait_us += (start - now) * 1e6
        spec = self.ssd.spec
        service_s = max(1.0 / spec.iops,
                        nbytes / spec.bandwidth_bytes_per_sec)
        self._free_at_s = start + service_s
        self.service_seconds += service_s
        self.submitted_writes += 1
        self.submitted_bytes += nbytes
        return self._free_at_s + self.ack_latency_us * 1e-6

    def elapsed_contribution(self) -> float:
        """Busy seconds to fold into elapsed time for a non-colocated
        device (a colocated device's busy time is already counted in the
        machine's SSD summary, so it contributes zero here)."""
        if self.colocated:
            return 0.0
        return self.service_seconds

    def reset(self) -> None:
        """Zero traffic accounting (the queue horizon is kept: pending
        service carries across measurement windows like the clock does)."""
        self.submitted_writes = 0
        self.submitted_bytes = 0
        self.service_seconds = 0.0
        self.queue_wait_us = 0.0
