"""Lightweight counters and histograms shared by all simulated components."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, as ``sum`` adds floats before
    Python 3.12.  From 3.12 on ``sum`` compensates float rounding, so a
    total of three or more floats can differ in its last bits from one
    interpreter to the next; a virtual number must not.  Like ``sum``,
    it starts from the int 0, so a total of ints stays an int."""
    total: float = 0
    for value in values:
        total += value
    return total


class CounterSet:
    """A named set of monotonically increasing counters.

    Components record what happened (I/Os issued, cache hits, delta hops)
    into a ``CounterSet``; experiment harnesses snapshot and diff them.

    ``counts`` is the dict behind the set: a hot path may bump a counter
    there directly (``counts[name] += amount``, never a negative or NaN
    amount), and may hold it, since :meth:`reset` clears it in place.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount`` (negative and NaN rejected)."""
        if not amount >= 0.0:
            raise ValueError(f"counter {name!r} increment must be >= 0, got {amount}")
        self.counts[name] += amount

    def get(self, name: str) -> float:
        """Return the value of ``name`` (0.0 if never incremented)."""
        return self.counts.get(name, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Return a copy of all counters."""
        return dict(self.counts)

    def diff(self, earlier: Mapping[str, float]) -> Dict[str, float]:
        """Return counters minus an ``earlier`` snapshot (new keys kept)."""
        return {
            name: value - earlier.get(name, 0.0)
            for name, value in self.counts.items()
            if value != earlier.get(name, 0.0)
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.counts.clear()

    def __contains__(self, name: str) -> bool:
        return name in self.counts


class Histogram:
    """A simple value histogram with exact percentiles.

    Stores raw observations; fine for the sample counts these experiments
    produce (at most a few million floats) and keeps percentile math exact.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record many observations."""
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return self.total / len(self._values)

    @property
    def minimum(self) -> float:
        if not self._values:
            return 0.0
        return min(self._values)

    @property
    def maximum(self) -> float:
        if not self._values:
            return 0.0
        return max(self._values)

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(0, math.ceil(q / 100.0 * len(self._values)) - 1)
        return self._values[rank]

    def reset(self) -> None:
        self._values.clear()
        self._sorted = True
