"""A frozen unit of pure-Python work that tells how fast the host is *now*.

The sandbox this benchmark runs in switches between faster and slower
regimes (about 1.25x apart, seconds to minutes long: other tenants on
the same cores), so the same loop takes 20-30% more or less host time
from one run to the next.  Nothing inside a run can average that away,
but a fixed piece of work executed right next to each chunk of the
measured loop slows down and speeds up with it.  Dividing by it reports
host time in **reference seconds**: seconds on a host that runs one
:meth:`ReferenceKernel.unit` in ``REFERENCE_UNIT_NS``.

Measured here over 55 five-second read_hot runs spread over nine minutes:
the reference tracked the workload with r = 0.96 and cut the
inter-quartile spread of its host time from 7.9% to 2.7% (README.md,
"Steady host time", has the other workloads).

The unit is shaped like the simulator's hot paths (small-object
creation, bytes-keyed dict lookups, recency-list moves, per-category
float accounting) but shares no code with it: a change to the program
can never make the reference faster.  A larger unit that also walked a
dict of lists tracked *worse* (its own time became dominated by cache
misses), so keep it small.
**Changing this file changes the unit every host metric is expressed
in**; do it only in a change that re-measures the baseline and does
nothing else.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Host nanoseconds one unit takes on the reference host: this sandbox in
#: its fast regime, so reference seconds read like seconds here.
REFERENCE_UNIT_NS = 36_000

_TABLE_KEYS = 32_768
_RECENCY_SLOTS = 8_192


@dataclass(slots=True)
class _Request:
    ident: int
    timestamp: int
    writes: Dict[bytes, float] = field(default_factory=dict)
    reads: List[bytes] = field(default_factory=list)


class ReferenceKernel:
    def __init__(self) -> None:
        self._table = {b"user%010d" % index: float(index)
                       for index in range(_TABLE_KEYS)}
        self._keys = list(self._table)
        self._recency = collections.OrderedDict(
            (index, index) for index in range(_RECENCY_SLOTS))
        self._by_category: Dict[str, float] = collections.defaultdict(float)
        self._busy = 0.0
        self._active: Dict[int, _Request] = {}
        self._position = 0

    def _charge(self, category: str, amount: float) -> None:
        self._busy += amount
        self._by_category[category] += amount

    def unit(self) -> None:
        """One fixed quantum of work (about 36 us on the reference host)."""
        table, keys, recency = self._table, self._keys, self._recency
        charge, active = self._charge, self._active
        start = self._position
        for index in range(start, start + 12):
            request = _Request(index + 1, index)
            active[index] = request
            key = keys[(index * 7919) % _TABLE_KEYS]
            request.reads.append(key)
            charge("dispatch", 0.52)
            charge("lookup", table[key] * 1e-9)
            recency.move_to_end((index * 31) % _RECENCY_SLOTS)
            charge("recency", 0.05)
            del active[index]
        self._position = start + 12


def lower_quartile(samples: Sequence[int]) -> int:
    """Interference only ever adds time, so the lower quartile of a set
    of like samples estimates the undisturbed duration."""
    ranked = sorted(samples)
    return ranked[(len(ranked) - 1) // 4]


def speed_factor(unit_ns: Sequence[int]) -> float:
    """Reference seconds per host second while ``unit_ns`` were sampled
    (above 1 on a host faster than the reference)."""
    return REFERENCE_UNIT_NS / lower_quartile(unit_ns)
