"""Virtual time for the simulated machine.

The reproduction never uses wall-clock time: Python execution speed says
nothing about the native engine the paper measured.  Instead, every store
charges *core-microseconds* to the CPU model, and the clock advances with the
charged work.  Time-based policies (the 45-second eviction rule, GC
scheduling) read this clock, so a run behaves as if it executed at the
calibrated native speed regardless of how fast Python happens to run it.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing virtual clock measured in seconds.

    The clock is advanced by the :class:`~repro.hardware.cpu.CpuModel`
    whenever work is charged (scaled by the number of cores, approximating
    steady-state elapsed time for a CPU-bound run) and may also be advanced
    directly, e.g. by workload drivers that model think time.

    ``now`` is the current virtual time in seconds: a plain attribute,
    read without a call.  Only the clock's own methods and the CPU
    model's billing write it.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError(f"clock cannot start before zero, got {start}")
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if not seconds >= 0.0:
            raise ValueError(f"clock advance must be >= 0, got {seconds}")
        self.now += seconds
        return self.now

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock, used between benchmark phases."""
        if start < 0.0:
            raise ValueError(f"clock cannot reset before zero, got {start}")
        self.now = float(start)
