"""Key-popularity distributions for workload generation.

The paper's analysis turns on how *hot* data is — the access rate per page
decides whether MM or SS operation pricing wins.  These generators produce
the key streams that create those access-rate distributions: YCSB's
scrambled Zipfian (hot keys spread across the keyspace) and uniform.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

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


#: Each ``make_chooser`` kind, a ``WorkloadSpec.distribution`` value,
#: and its chooser, built from ``(item_count, theta, seed)``.
CHOOSERS: Dict[str, Callable[[int, float, int], KeyChooser]] = {
    "uniform": lambda item_count, theta, seed: UniformChooser(item_count,
                                                              seed),
    "scrambled": ScrambledZipfianChooser,
}


def make_chooser(kind: str, item_count: int, seed: int = 0,
                 theta: float = 0.99) -> KeyChooser:
    """Factory by name: a :data:`CHOOSERS` kind."""
    if kind not in CHOOSERS:
        raise ValueError(
            f"unknown distribution {kind!r}; choose from {sorted(CHOOSERS)}"
        )
    return CHOOSERS[kind](item_count, theta, seed)
