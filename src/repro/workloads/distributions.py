"""Key-popularity distributions for workload generation.

The paper's analysis turns on how *hot* data is — the access rate per page
decides whether MM or SS operation pricing wins.  These generators produce
the key streams that create those access-rate distributions: YCSB's
scrambled Zipfian (hot keys spread across the keyspace) and uniform.
Each is an endless stream of item indices in ``[0, item_count)``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator

from ..sharding.router import fnv1a_64


def uniform_indices(item_count: int, theta: float,
                    seed: int) -> Iterator[int]:
    """Every item equally likely (``theta`` plays no part)."""
    randrange = random.Random(seed).randrange
    while True:
        yield randrange(item_count)


def scrambled_zipfian_indices(item_count: int, theta: float,
                              seed: int) -> Iterator[int]:
    """Zipfian ranks hashed across the keyspace (YCSB's default).

    A rank (0 hottest) is drawn by the Gray et al. rejection-free
    inversion of the YCSB generator, and its item is the rank's FNV-1a
    hash modulo ``item_count``, memoised per rank.  Hot items are spread
    out instead of clustered at low indices, which is what makes
    page-level caching earn its keep: hot records share pages with cold
    ones.
    """
    zetan = sum(1.0 / (i ** theta) for i in range(1, item_count + 1))
    zeta2 = sum(1.0 / (i ** theta) for i in range(1, 3))
    alpha = 1.0 / (1.0 - theta)
    # Two items never need the inversion, whose ``eta`` is then 0 / 0.
    eta = ((1.0 - (2.0 / item_count) ** (1.0 - theta))
           / (1.0 - zeta2 / zetan)) if item_count > 2 else 0.0
    rank_one_below = 1.0 + 0.5 ** theta
    draw = random.Random(seed).random
    index_of = [-1] * (item_count + 1)      # no rank exceeds item_count
    while True:
        u = draw()
        uz = u * zetan
        if uz < 1.0:
            rank = 0
        elif uz < rank_one_below:
            rank = 1
        else:
            rank = int(item_count * (eta * u - eta + 1.0) ** alpha)
        index = index_of[rank]
        if index < 0:
            index = index_of[rank] = (
                fnv1a_64(rank.to_bytes(8, "little")) % item_count)
        yield index


#: Each ``make_chooser`` kind, a ``WorkloadSpec.distribution`` value,
#: and its index stream, built from ``(item_count, theta, seed)``.
CHOOSERS: Dict[str, Callable[[int, float, int], Iterator[int]]] = {
    "uniform": uniform_indices,
    "scrambled": scrambled_zipfian_indices,
}


def make_chooser(kind: str, item_count: int, seed: int = 0,
                 theta: float = 0.99) -> Iterator[int]:
    """The index stream of a :data:`CHOOSERS` kind.

    Its arguments are checked here: a generator's body runs only at its
    first ``next()``.
    """
    if kind not in CHOOSERS:
        raise ValueError(
            f"unknown distribution {kind!r}; choose from {sorted(CHOOSERS)}"
        )
    if item_count <= 0:
        raise ValueError(f"item_count must be positive, got {item_count}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    return CHOOSERS[kind](item_count, theta, seed)
