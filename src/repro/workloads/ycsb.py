"""YCSB-style workload specifications and operation streams.

The paper's experiments are read and read/update mixes over a loaded store;
we generate them YCSB-style: a keyspace of ``user########``-shaped keys,
fixed-size values, a popularity distribution, and a read/update mix.
YCSB's A, B and C mixes are provided as constructors.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..frozen import ABOVE_ZERO, UP_TO_ONE, check_bounds, slot_init
from .distributions import make_chooser


class OpKind(enum.Enum):
    READ = "read"
    UPDATE = "update"

#: A generator draws its value words a block at a time: its first block
#: is small, and each next block doubles up to the largest.
_FIRST_BLOCK_WORDS = 256
_BLOCK_WORDS = 8192
#: A word's top byte: redrawn when its top bit is set, else a run's
#: ``(length - 1) << 4`` (``& 0x70``) or a letter's index (``>> 3``).
_REDRAWN = bytes(range(128, 256))
_RUN = bytes(byte & 0x70 for byte in range(256))
_LETTER = bytes(byte >> 3 & 15 for byte in range(256))


def _plane(slot: int) -> bytes:
    """What a run cell ``(length - 1) << 4 | letter`` puts at ``slot`` of
    its eight: the lower-case letter, upper-case if the run ends there,
    or 0 past the run."""
    plane = bytearray(256)
    for cell in range(128):
        last = cell >> 4
        if slot <= last:
            plane[cell] = (0x61 if slot < last else 0x41) + (cell & 15)
    return bytes(plane)


_PLANES = [_plane(slot) for slot in range(8)]
_RUN_ENDS = bytes.maketrans(b"ABCDEFGHIJKLMNOP", b"|" * 16)


@slot_init
@dataclass(frozen=True, slots=True)
class Operation:
    """One generated operation."""

    kind: OpKind
    key: bytes
    value: Optional[bytes] = None


@dataclass
class WorkloadSpec:
    """A YCSB-like workload definition."""

    record_count: int = 10_000
    key_prefix: bytes = b"user"
    value_bytes: int = 100
    distribution: str = "scrambled"
    theta: float = 0.99
    read_fraction: float = 1.0
    update_fraction: float = 0.0
    seed: int = 42

    #: Both op-mix fractions are in [0, 1] (and they sum to 1); a zipfian
    #: theta is in (0, 1).
    BOUNDS = {
        "record_count": (1, math.inf), "value_bytes": (0, math.inf),
        "theta": (ABOVE_ZERO, 1.0),
        "read_fraction": (0.0, UP_TO_ONE), "update_fraction": (0.0, UP_TO_ONE),
        "seed": (-math.inf, math.inf),
    }

    def __post_init__(self) -> None:
        check_bounds(self)
        total = self.read_fraction + self.update_fraction
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"WorkloadSpec.read_fraction + update_fraction "
                             f"must sum to 1, got {total}")

    # --- the standard mixes ------------------------------------------------

    @classmethod
    def ycsb_a(cls, **overrides) -> "WorkloadSpec":
        """50/50 read/update, zipfian — the update-heavy mix."""
        return cls(read_fraction=0.5, update_fraction=0.5, **overrides)

    @classmethod
    def ycsb_b(cls, **overrides) -> "WorkloadSpec":
        """95/5 read/update — the read-mostly mix."""
        return cls(read_fraction=0.95, update_fraction=0.05, **overrides)

    @classmethod
    def ycsb_c(cls, **overrides) -> "WorkloadSpec":
        """100% reads — the paper's read-only experiments."""
        return cls(read_fraction=1.0, **overrides)


class WorkloadGenerator:
    """Generates the load phase and an operation stream for a spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._value_bits = random.Random(spec.seed ^ 0x5EED).getrandbits
        self._block_words = _FIRST_BLOCK_WORDS
        self._odd = b""         # an accepted run byte whose letter is next
        self._runs = b""        # drawn runs no value has used yet
        self._values: List[bytes] = []      # cut, last one first
        self._op_rng = random.Random(spec.seed ^ 0x0B5)
        self._indices: Iterator[int] = make_chooser(
            spec.distribution, spec.record_count, seed=spec.seed,
            theta=spec.theta)
        self._keys: Dict[int, bytes] = {}
        #: Index -> its one shared read ``Operation``, once drawn.
        self._reads: List[Optional[Operation]] = [None] * spec.record_count

    def key_for(self, index: int) -> bytes:
        """Item ``index``'s key: one shared object (and hash) per index."""
        key = self._keys.get(index)
        if key is None:
            key = self._keys[index] = self.spec.key_prefix + b"%010d" % index
        return key

    def make_value(self) -> bytes:
        """A pseudorandom-but-compressible value of the configured size.

        Values are built from a small alphabet with runs, so the
        compression experiments (paper Section 7.2) operate on data a real
        codec can shrink.  A run is ``randint(1, 8)`` of letter
        ``randrange(16)``, drawn as ``random.Random`` draws them: the
        bound's bit length of ``getrandbits``, redrawn until below it.  A
        value takes whole runs until it is long enough and keeps its
        first ``value_bytes`` letters; values are cut a block at a time
        (:meth:`_cut_values`).
        """
        values = self._values
        while not values:
            self._cut_values(values)
        return values.pop()

    def _cut_values(self, values: List[bytes]) -> None:
        """Draw the next block of value words and cut it into the empty
        ``values``, last value first.

        ``getrandbits(k)`` for ``k <= 32`` is the top ``k`` bits of one
        32-bit word, so the run draw and the letter draw each accept
        exactly the words whose top bit is clear, alternating run,
        letter; ``getrandbits(32 * words)`` is the same words in order,
        word ``i`` in bits ``32 i`` to ``32 i + 31``.  Nothing else reads
        this RNG, so drawing ahead changes no value.  Every step but the
        cut is a C-level ``bytes`` operation: eight interleaved planes
        spell the runs out, each run's last letter in upper case, so a
        value of ``n`` letters from ``start`` takes the runs up to the
        first run end at or past ``start + n - 1``.  Runs no value has
        used, and a run byte still waiting for its letter, carry over to
        the next block.
        """
        n = self.spec.value_bytes
        if n == 0:                          # an empty value draws nothing
            values += [b""] * 256
            return
        words = self._block_words
        self._block_words = min(2 * words, _BLOCK_WORDS)
        top = self._value_bits(32 * words).to_bytes(4 * words, "little")
        accepted = self._odd + top[3::4].translate(None, _REDRAWN)
        pairs = len(accepted) >> 1
        self._odd = accepted[2 * pairs:]
        # One cell per run, (length - 1) << 4 | letter: the two bytes'
        # bits do not overlap, so one integer OR merges them all.
        cells = (int.from_bytes(accepted[:2 * pairs:2].translate(_RUN),
                                "little")
                 | int.from_bytes(accepted[1::2].translate(_LETTER),
                                  "little")).to_bytes(pairs, "little")
        slots = bytearray(8 * pairs)
        for slot, plane in enumerate(_PLANES):
            slots[slot::8] = cells.translate(plane)
        runs = self._runs + bytes(slots).translate(None, b"\0")
        letters, ends = runs.lower(), runs.translate(_RUN_ENDS)
        start, end = 0, ends.find(b"|", n - 1)
        while end >= 0:
            values.append(letters[start:start + n])
            start = end + 1
            end = ends.find(b"|", start + n - 1)
        self._runs = runs[start:]
        values.reverse()

    def load_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """The (key, value) pairs of the load phase, in key order."""
        for index in range(self.spec.record_count):
            yield self.key_for(index), self.make_value()

    def operations(self, count: int) -> Iterator[Operation]:
        """An operation stream of ``count`` ops following the mix.

        Lazy, so ops taken in turns (warm-up, then measured) continue one
        stream; an op is a read when its roll is below ``read_fraction``.
        A read is one shared frozen ``Operation`` per index (memoised as
        :meth:`key_for` memoises keys); an update is a fresh one.
        """
        reads = self.spec.read_fraction
        roll = self._op_rng.random
        key_for, make_value = self.key_for, self.make_value
        read_of = self._reads
        update = OpKind.UPDATE          # a local: no enum lookup per op
        for index in islice(self._indices, count):
            if roll() < reads:
                op = read_of[index]
                if op is None:
                    op = read_of[index] = Operation(OpKind.READ,
                                                    key_for(index))
                yield op
            else:
                yield Operation(update, key_for(index), make_value())


def partition_operations(
    operations: Iterator[Operation],
    num_shards: int,
    shard_for,
) -> List[List[Operation]]:
    """Split an operation stream into per-shard streams, order preserved.

    ``shard_for(key, num_shards)`` (or any ``(bytes, int) -> int``) picks
    the owning shard.  Each shard's stream is the subsequence of the
    input it owns, which is exactly what a scatter router delivers —
    useful for shard-balance reporting and for driving shards
    independently in benchmarks.
    """
    if num_shards <= 0:
        raise ValueError(f"need at least one shard, got {num_shards}")
    per_shard: List[List[Operation]] = [[] for __ in range(num_shards)]
    for op in operations:
        per_shard[shard_for(op.key, num_shards)].append(op)
    return per_shard


def shard_balance(per_shard: List[List[Operation]]) -> float:
    """Max/mean shard load ratio (1.0 = perfectly even, higher = skewed)."""
    counts = [len(ops) for ops in per_shard]
    total = sum(counts)
    if total == 0 or not counts:
        return 1.0
    mean = total / len(counts)
    return max(counts) / mean


@dataclass
class RunStats:
    """What happened when a stream was applied to a store."""

    operations: int = 0
    ss_operations: int = 0
    ios: int = 0

    @property
    def ss_fraction(self) -> float:
        """The paper's F: fraction of operations that touched the SSD."""
        if self.operations == 0:
            return 0.0
        return self.ss_operations / self.operations


def apply_operations(store, operations: Iterator[Operation]) -> RunStats:
    """Drive a store (BwTree-compatible API) with an operation stream.

    The store must expose ``get_with_stats`` and ``upsert``, each
    returning an object with ``ios`` (BwTree and LsmTree both qualify).
    Returns per-run statistics including the paper's F.
    """
    stats = RunStats()
    for op in operations:
        stats.operations += 1
        if op.kind is OpKind.READ:
            ios = store.get_with_stats(op.key).ios
        else:
            ios = store.upsert(op.key, op.value).ios
        stats.ios += ios
        if ios > 0:
            stats.ss_operations += 1
    return stats
