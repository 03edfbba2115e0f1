"""Simulated flash SSD (paper Section 4.1 "SSD").

Models the three things the paper's analysis cares about:

* an **IOPS capacity** that caps how many accesses per second the device can
  serve (the paper's experimentally determined 2.0e5 IOPS) — a run whose
  offered I/O rate exceeds it becomes I/O bound, which the paper explicitly
  excludes from its R derivation and which our harness detects;
* **byte accounting** of what is stored on flash (for the $Fl storage-cost
  term);
* a **service latency**, used only for latency reporting — the paper's cost
  analysis deliberately excludes waiting time, and so do our cost sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..frozen import ABOVE_ZERO, check_bounds
from .metrics import CounterSet


@dataclass(frozen=True)
class SsdSpec:
    """Physical and price characteristics of a simulated SSD.

    Defaults are the paper's: a 0.5 TB drive priced at $300 of which $250 is
    attributed to flash bytes and $50 to its I/O capability, serving 2.0e5
    IOPS (the measured maximum, below the 3.0e5 device spec).
    """

    capacity_bytes: int = 500 * 10**9
    iops: float = 2.0e5
    read_latency_us: float = 80.0
    write_latency_us: float = 30.0
    bandwidth_bytes_per_sec: float = 2.0e9
    price_dollars: float = 300.0
    flash_price_per_byte: float = 0.5e-9

    #: A NaN, infinite, negative or (for a rate or a size) zero field
    #: would surface only later, as a NaN or negative service time or a
    #: nonsense $I.
    BOUNDS = {
        "capacity_bytes": (1, math.inf), "iops": (ABOVE_ZERO, math.inf),
        "read_latency_us": (0.0, math.inf),
        "write_latency_us": (0.0, math.inf),
        "bandwidth_bytes_per_sec": (ABOVE_ZERO, math.inf),
        "price_dollars": (0.0, math.inf),
        "flash_price_per_byte": (0.0, math.inf),
    }

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def iops_price_dollars(self) -> float:
        """$I: the drive price attributable to its I/O capability.

        The paper derives $I = $300 - $250 = $50 by subtracting the price of
        the raw flash bytes from the drive price (Section 4.1).
        """
        flash_dollars = self.flash_price_per_byte * self.capacity_bytes
        return max(0.0, self.price_dollars - flash_dollars)

    def scaled(self, factor: float) -> "SsdSpec":
        """A uniformly ``factor``-times-faster device at the same price.

        IOPS capacity and bandwidth multiply by ``factor``; per-access
        latencies divide by it; capacity and prices are untouched.  Each
        access's busy term ``max(1/iops, nbytes/bandwidth)`` becomes the
        original term divided by ``factor``, which is what the what-if
        profiler's device predictions rely on (exact up to float
        association, since ``1/(iops*f)`` and ``(1/iops)/f`` can differ
        in the last ULPs).
        """
        if not 0.0 < factor < math.inf:
            raise ValueError(
                f"scale factor must be positive and finite, got {factor}")
        return SsdSpec(
            capacity_bytes=self.capacity_bytes,
            iops=self.iops * factor,
            read_latency_us=self.read_latency_us / factor,
            write_latency_us=self.write_latency_us / factor,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec * factor,
            price_dollars=self.price_dollars,
            flash_price_per_byte=self.flash_price_per_byte,
        )

    def scaled_iops(self, iops: float,
                    price_dollars: float | None = None) -> "SsdSpec":
        """A spec with different IOPS (for the Section 7.1.2 price sweep)."""
        return SsdSpec(
            capacity_bytes=self.capacity_bytes,
            iops=iops,
            read_latency_us=self.read_latency_us,
            write_latency_us=self.write_latency_us,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
            price_dollars=(self.price_dollars if price_dollars is None
                           else price_dollars),
            flash_price_per_byte=self.flash_price_per_byte,
        )


class SimulatedSsd:
    """Counts accesses and bytes against an :class:`SsdSpec`.

    The device does not simulate a request queue: the paper's model is
    throughput-oriented, so we track *device busy time* (ios / IOPS capacity,
    plus a bandwidth term for large transfers) and let the machine compare it
    with CPU busy time to find the bottleneck.
    """

    def __init__(self, spec: SsdSpec | None = None) -> None:
        self.spec = spec if spec is not None else SsdSpec()
        self.counters = CounterSet()
        self._busy_seconds = 0.0
        self._stored_bytes = 0
        #: Accesses performed since the last reset (one per read/write): a
        #: plain attribute, read without a call; only the device writes it.
        self.total_ios = 0
        #: Running sum of per-access service time in microseconds since
        #: the last reset: a plain attribute, read without a call; only
        #: the device writes it.
        self.service_us_total = 0.0

    # --- data-path operations ------------------------------------------

    def read(self, nbytes: int) -> float:
        """Perform one read access of ``nbytes``; returns service us."""
        return self._access("ssd.reads", nbytes, self.spec.read_latency_us)

    def write(self, nbytes: int) -> float:
        """Perform one write access of ``nbytes``; returns service us."""
        return self._access("ssd.writes", nbytes,
                            self.spec.write_latency_us)

    def _access(self, ios_key: str, nbytes: int, latency_us: float) -> float:
        if nbytes <= 0:
            raise ValueError(f"I/O size must be positive, got {nbytes}")
        self.counters.counts[ios_key] += 1.0
        per_io = 1.0 / self.spec.iops
        transfer = nbytes / self.spec.bandwidth_bytes_per_sec
        self._busy_seconds += max(per_io, transfer)
        service_us = latency_us + transfer * 1e6
        self.total_ios += 1
        self.service_us_total += service_us
        return service_us

    # --- capacity accounting --------------------------------------------

    def store_bytes(self, nbytes: int) -> None:
        """Account ``nbytes`` as newly occupying flash."""
        if nbytes < 0:
            raise ValueError("cannot store negative bytes")
        if self._stored_bytes + nbytes > self.spec.capacity_bytes:
            raise SsdFullError(
                f"SSD full: {self._stored_bytes} + {nbytes} "
                f"> {self.spec.capacity_bytes}"
            )
        self._stored_bytes += nbytes

    def release_bytes(self, nbytes: int) -> None:
        """Account ``nbytes`` of flash as reclaimed (e.g. by GC)."""
        if nbytes < 0:
            raise ValueError("cannot release negative bytes")
        if nbytes > self._stored_bytes:
            raise ValueError(
                f"releasing {nbytes} bytes but only {self._stored_bytes} stored"
            )
        self._stored_bytes -= nbytes

    # --- reporting --------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        return self._stored_bytes

    @property
    def busy_seconds(self) -> float:
        """Device busy time implied by the accesses performed so far."""
        return self._busy_seconds

    def reset(self) -> None:
        """Zero traffic accounting; stored bytes are left in place."""
        self.counters.reset()
        self._busy_seconds = 0.0
        self.total_ios = 0
        self.service_us_total = 0.0


class SsdFullError(RuntimeError):
    """Raised when a store exceeds the simulated device capacity."""
