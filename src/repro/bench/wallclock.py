"""Wall-clock timing for benchmark harnesses.

Everything under ``bench/`` measures *real* elapsed time — how long the
host takes to run a simulation — which is exactly the one place wall
clocks are allowed.  Simulation code must never import this; it gets
time from ``hardware/clock.py``.
"""

from __future__ import annotations

import time
from typing import Callable


class WallTimer:
    """Context manager exposing elapsed wall seconds as ``.elapsed``."""

    __slots__ = ("_clock", "_start", "elapsed")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "WallTimer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = self._clock() - self._start
