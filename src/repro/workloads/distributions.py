"""Key-popularity distributions for workload generation.

The paper's analysis turns on how *hot* data is — the access rate per page
decides whether MM or SS operation pricing wins.  These generators produce
the key streams that create those access-rate distributions: Zipfian (YCSB's
default, scrambled so hot keys are spread across the keyspace), uniform,
hotspot, and latest.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

from ..sharding.router import fnv1a_64


class KeyChooser:
    """Base class: pick an integer item index in [0, item_count)."""

    def __init__(self, item_count: int, seed: int = 0) -> None:
        if item_count <= 0:
            raise ValueError(f"item_count must be positive, got {item_count}")
        self.item_count = item_count
        self.rng = random.Random(seed)

    def next_index(self) -> int:
        raise NotImplementedError

    def sample(self, n: int) -> List[int]:
        """Draw ``n`` indices."""
        return [self.next_index() for __ in range(n)]


class UniformChooser(KeyChooser):
    """Every item equally likely."""

    def next_index(self) -> int:
        return self.rng.randrange(self.item_count)


class ZipfianChooser(KeyChooser):
    """Classic YCSB Zipfian over item ranks (rank 0 hottest).

    Uses the Gray et al. rejection-free inversion from the YCSB generator;
    ``theta`` defaults to YCSB's 0.99.
    """

    def __init__(self, item_count: int, theta: float = 0.99,
                 seed: int = 0) -> None:
        super().__init__(item_count, seed)
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.theta = theta
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (
            (1.0 - (2.0 / item_count) ** (1.0 - theta))
            / (1.0 - self._zeta2 / self._zetan)
        )
        self._rank_one_below = 1.0 + 0.5 ** theta

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_index(self) -> int:
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._rank_one_below:
            return 1
        return int(
            self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha
        )


class ScrambledZipfianChooser(KeyChooser):
    """Zipfian ranks hashed across the keyspace (YCSB's default).

    Hot items are spread out instead of clustered at low indices, which is
    what makes page-level caching earn its keep: hot records share pages
    with cold ones.
    """

    def __init__(self, item_count: int, theta: float = 0.99,
                 seed: int = 0) -> None:
        super().__init__(item_count, seed)
        self._zipf = ZipfianChooser(item_count, theta, seed)
        #: rank -> index, bounded by ``item_count`` (no rank exceeds it).
        self._index_of: Dict[int, int] = {}

    def next_index(self) -> int:
        rank = self._zipf.next_index()
        index = self._index_of.get(rank)
        if index is None:
            index = self._index_of[rank] = (
                fnv1a_64(rank.to_bytes(8, "little")) % self.item_count)
        return index


class HotspotChooser(KeyChooser):
    """A fraction of the keyspace receives a fraction of the accesses.

    ``hot_fraction`` of items get ``hot_access_fraction`` of accesses;
    e.g. the classic 80/20.
    """

    def __init__(self, item_count: int, hot_fraction: float = 0.2,
                 hot_access_fraction: float = 0.8, seed: int = 0) -> None:
        super().__init__(item_count, seed)
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_access_fraction <= 1.0:
            raise ValueError("hot_access_fraction must be in [0, 1]")
        self.hot_count = max(1, int(item_count * hot_fraction))
        self.hot_access_fraction = hot_access_fraction

    def next_index(self) -> int:
        if self.rng.random() < self.hot_access_fraction:
            return self.rng.randrange(self.hot_count)
        if self.hot_count >= self.item_count:
            return self.rng.randrange(self.item_count)
        return self.rng.randrange(self.hot_count, self.item_count)


class LatestChooser(KeyChooser):
    """Skewed toward the most recently inserted items (YCSB workload D)."""

    def __init__(self, item_count: int, theta: float = 0.99,
                 seed: int = 0) -> None:
        super().__init__(item_count, seed)
        self._zipf = ZipfianChooser(item_count, theta, seed)

    def next_index(self) -> int:
        rank = self._zipf.next_index()
        return self.item_count - 1 - rank

    def grow(self) -> None:
        """Note a newly inserted item (shifts "latest")."""
        self.item_count += 1
        if self.item_count > self._zipf.item_count:
            # Rebuild lazily in powers of two to bound zeta recomputation.
            if self.item_count > 2 * self._zipf.item_count or \
                    self.item_count.bit_count() == 1:
                self._zipf = ZipfianChooser(
                    self.item_count, self._zipf.theta,
                    self.rng.randrange(1 << 30),
                )


def access_interval_seconds(ops_per_second: float) -> float:
    """The paper's Ti: mean seconds between accesses at a given rate."""
    if ops_per_second <= 0.0:
        return math.inf
    return 1.0 / ops_per_second


def make_chooser(kind: str, item_count: int, seed: int = 0,
                 theta: float = 0.99,
                 hot_fraction: float = 0.2,
                 hot_access_fraction: float = 0.8) -> KeyChooser:
    """Factory by name: uniform | zipfian | scrambled | hotspot | latest."""
    kinds = {
        "uniform": lambda: UniformChooser(item_count, seed),
        "zipfian": lambda: ZipfianChooser(item_count, theta, seed),
        "scrambled": lambda: ScrambledZipfianChooser(item_count, theta, seed),
        "hotspot": lambda: HotspotChooser(
            item_count, hot_fraction, hot_access_fraction, seed
        ),
        "latest": lambda: LatestChooser(item_count, theta, seed),
    }
    if kind not in kinds:
        raise ValueError(
            f"unknown distribution {kind!r}; choose from {sorted(kinds)}"
        )
    return kinds[kind]()
