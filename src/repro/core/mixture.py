"""Mixed-workload performance model (paper Section 2.2, Equations 1-3).

Given the relative execution cost R of SS operations, the throughput of a
mix with SS fraction F follows from the weighted per-operation execution
time — Figure 1's curves.  Conversely, measured (F, PF) points recover R
via Equation (3), which is how the paper derives R ~ 5.8 +/- 30%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..frozen import ABOVE_ZERO, UP_TO_ONE, check_bounds


def mixed_execution_time(p0: float, f: float, r: float) -> float:
    """Equation (1): weighted seconds/op of a mix with SS fraction ``f``."""
    _check_fraction(f)
    if p0 <= 0:
        raise ValueError(f"P0 must be positive, got {p0}")
    if r <= 0:
        raise ValueError(f"R must be positive, got {r}")
    return (1.0 - f) / p0 + f * r / p0


def mixed_throughput(p0: float, f: float, r: float) -> float:
    """Equation (2): PF = P0 / ((1 - F) + F * R)."""
    return 1.0 / mixed_execution_time(p0, f, r)


def relative_performance(f: float, r: float) -> float:
    """PF / P0 as a function of F — the y-axis of Figure 1."""
    return mixed_throughput(1.0, f, r)


def derive_r(p0: float, pf: float, f: float) -> float:
    """Equation (3): R = 1 + (1/F) * (P0/PF - 1)."""
    _check_fraction(f)
    if f == 0.0:
        raise ValueError("R is undefined at F = 0 (no SS operations)")
    if p0 <= 0 or pf <= 0:
        raise ValueError("throughputs must be positive")
    return 1.0 + (p0 / pf - 1.0) / f


def _check_fraction(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"F must be a fraction in [0, 1], got {f}")


@dataclass(frozen=True)
class MeasuredPoint:
    """One experimental observation: SS fraction and achieved throughput."""

    f: float
    throughput: float
    cores: int = 1
    io_bound: bool = False

    BOUNDS = {"f": (0, UP_TO_ONE), "throughput": (ABOVE_ZERO, math.inf),
              "cores": (1, math.inf)}

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class RDerivation:
    """R recovered from a set of measured points (paper's 5.8 +/- 30%)."""

    r_values: Tuple[float, ...]
    excluded_io_bound: int

    @property
    def mean(self) -> float:
        if not self.r_values:
            raise ValueError("no usable points to derive R from")
        return sum(self.r_values) / len(self.r_values)

    @property
    def minimum(self) -> float:
        return min(self.r_values)

    @property
    def maximum(self) -> float:
        return max(self.r_values)

    @property
    def spread_fraction(self) -> float:
        """Half-width of the observed range relative to the mean."""
        mean = self.mean
        return max(self.maximum - mean, mean - self.minimum) / mean


class MixtureModel:
    """Figure 1 as an object: analytic curves plus measured-point checks."""

    def __init__(self, r: float = 5.8, band_fraction: float = 0.30) -> None:
        if r <= 0:
            raise ValueError("R must be positive")
        if not 0.0 <= band_fraction < 1.0:
            raise ValueError("band fraction must be in [0, 1)")
        self.r = r
        self.band_fraction = band_fraction

    @property
    def r_low(self) -> float:
        return self.r * (1.0 - self.band_fraction)

    @property
    def r_high(self) -> float:
        return self.r * (1.0 + self.band_fraction)

    def curve(self, fractions: Sequence[float],
              r: float | None = None) -> List[float]:
        """Relative performance PF/P0 at each F."""
        use_r = self.r if r is None else r
        return [relative_performance(f, use_r) for f in fractions]

    def band(self, fractions: Sequence[float]
             ) -> Tuple[List[float], List[float]]:
        """The +/- band curves (note: lower R gives the *upper* curve)."""
        return self.curve(fractions, self.r_low), \
            self.curve(fractions, self.r_high)

    def point_in_band(self, point: MeasuredPoint, p0: float) -> bool:
        """Does a measured point fall between the band curves?"""
        rel = point.throughput / p0
        upper = relative_performance(point.f, self.r_low)
        lower = relative_performance(point.f, self.r_high)
        return lower <= rel <= upper

    def derive(self, p0: float, points: Iterable[MeasuredPoint],
               min_f: float = 0.01) -> RDerivation:
        """Recover R from measured points, excluding I/O-bound runs.

        Points with F below ``min_f`` are skipped: Equation (3) amplifies
        measurement noise as 1/F, the "very cold I/O path" regime the paper
        also excludes.
        """
        values: List[float] = []
        excluded = 0
        for point in points:
            if point.io_bound:
                excluded += 1
                continue
            if point.f < min_f:
                continue
            values.append(derive_r(p0, point.throughput, point.f))
        return RDerivation(tuple(values), excluded)
