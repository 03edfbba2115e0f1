"""Deterministic fault injection: sites, plans, and the injector.

The simulator's crash story (paper Section 6.2, Deuteronomy 2.0's
durable-log/retained-buffer split) only holds if recovery works from
*every* intermediate state a power loss can expose — not just the clean
"crash between operations" point that ``simulate_crash()`` exercises.
This module provides the machinery to crash (or transiently fail)
*between* the individual mutation steps of the storage and TC layers:

* a :data:`FAULT_SITES` registry of named injection points, threaded
  through ``LogStructuredStore.append/flush``, ``RecoveryLog.flush``,
  ``CheckpointManager.write_checkpoint``, the segment GC, and
  ``ShardedEngine`` batch boundaries;
* a :class:`FaultPlan` describing *what* to inject *where*: a simulated
  power loss (:class:`CrashError`) or a transient device error
  (:class:`IoError`) on the Nth hit of a site, plus an optional seeded
  random transient-noise schedule;
* a :class:`FaultInjector` that counts site hits and fires the plan.

Everything is deterministic: hit counters plus an explicitly seeded
``random.Random`` — no wall clock, no global state — so the same plan
over the same trace crashes at exactly the same machine state every
time (the property the crash-matrix runner in :mod:`repro.faults.matrix`
is built on, and what CI's cross-process ``cmp`` of its report checks).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..frozen import check_bounds


class CrashError(RuntimeError):
    """A simulated power loss raised at a fault site.

    Everything the simulation considers durable at the raise point
    survives; recovery goes through the normal recovery paths
    (``DeuteronomyEngine.recover`` / ``ShardedEngine.recover``).
    """

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"simulated crash at {site} (hit {hit})")
        self.site = site
        self.hit = hit


class IoError(RuntimeError):
    """A transient, retryable device error raised at a fault site.

    Unlike :class:`CrashError` this models the device saying "try
    again": callers on the SSD path wrap the access in
    :func:`repro.faults.retry.run_with_retries`, which re-charges the
    CPU/IO models for every retry.
    """

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"transient I/O error at {site} (hit {hit})")
        self.site = site
        self.hit = hit


class FaultKind(enum.Enum):
    CRASH = "crash"
    IO_ERROR = "io-error"


@dataclass(frozen=True, slots=True)
class FaultSite:
    """One registered injection point.

    ``transient_ok`` marks sites on a retry-wrapped SSD path where an
    :class:`IoError` is recoverable in place; injecting transient
    faults elsewhere would surface as an ordinary (uncaught) error.
    """

    name: str
    description: str
    transient_ok: bool = False


def _registry() -> Dict[str, FaultSite]:
    sites = [
        FaultSite(
            "log_store.append",
            "entry of LogStructuredStore.append, before the image is "
            "staged into the open write buffer",
        ),
        FaultSite(
            "log_store.flush",
            "inside LogStructuredStore.flush, after the I/O path charge "
            "and before the device write — the whole open buffer is lost",
            transient_ok=True,
        ),
        FaultSite(
            "recovery_log.flush",
            "inside RecoveryLog.flush, after the I/O path charge and "
            "before the device write — the buffer never becomes durable",
            transient_ok=True,
        ),
        FaultSite(
            "recovery_log.flush.after_write",
            "inside RecoveryLog.flush, after the device acked the write "
            "but before the buffer is marked flushed/rotated — durable "
            "on flash, unmarked in memory",
        ),
        FaultSite(
            "checkpoint.write.after_append",
            "inside CheckpointManager.write_checkpoint, after the new "
            "image is appended but before store.flush() makes it durable",
        ),
        FaultSite(
            "checkpoint.write.after_flush",
            "inside CheckpointManager.write_checkpoint, after the new "
            "image is durable but before the old image is invalidated — "
            "two live checkpoint images on flash",
        ),
        FaultSite(
            "gc.clean_segment",
            "entry of GarbageCollector.clean_segment, before the "
            "victim's live images are read or relocated",
        ),
        FaultSite(
            "gc.drop_segment",
            "inside GarbageCollector.drop_pending, before one cleaned "
            "segment is reclaimed (after the superseding checkpoint)",
        ),
        FaultSite(
            "commit_pipeline.epoch_open",
            "inside CommitPipeline.enqueue_epoch, as a fresh commit "
            "epoch opens — the enqueueing commit's records are appended "
            "but no future exists yet",
        ),
        FaultSite(
            "commit_pipeline.flush.pre_ack",
            "inside CommitPipeline ack processing, after the sealed "
            "buffer's device write was submitted but before the ack is "
            "honored — the buffer never becomes durable",
        ),
        FaultSite(
            "commit_pipeline.flush.post_ack",
            "inside CommitPipeline ack processing, after mark_durable "
            "but before the buffer's commit futures resolve — durable "
            "on flash, futures forever pending",
        ),
        FaultSite(
            "record_cache.gc_relocate",
            "inside RecordStore.collect_garbage, before one sealed "
            "arena's live records are relocated — the heap is mid-GC, "
            "volatile only (WAL-first: every dirty record is logged)",
        ),
        FaultSite(
            "record_cache.arena_seal",
            "inside RecordStore.seal_arena, after the open arena fills "
            "but before the replacement arena opens",
        ),
        FaultSite(
            "sharded.apply_batch.boundary",
            "inside ShardedEngine scatter/gather, between per-shard "
            "sub-batches — earlier shards committed, later ones did not",
        ),
        FaultSite(
            "cache.demote",
            "inside TierCache.demote, after the victim tier is chosen "
            "but before the copy is parked — the victim's durable "
            "images are already on flash, only the volatile far-memory "
            "copy is lost",
        ),
        FaultSite(
            "tier.promote",
            "inside TierCache.promote, after a current far-memory copy "
            "is found but before it is reinstalled — recovery must "
            "rebuild the page from its flash chain alone",
        ),
    ]
    return {site.name: site for site in sites}


#: Every known injection site, in registration order.
FAULT_SITES: Dict[str, FaultSite] = _registry()


@dataclass(frozen=True, slots=True)
class FaultRule:
    """Fire ``kind`` at hits ``hit_index .. hit_index + count - 1``.

    ``count > 1`` only makes sense for transient faults: with the site
    inside a retry loop, consecutive failing hits model a device that
    errors ``count`` times before succeeding.
    """

    site: str
    hit_index: int
    kind: FaultKind
    count: int = 1

    #: ``hit_index`` is 1-based; a rule fires at least once.
    BOUNDS = {"hit_index": (1, math.inf), "count": (1, math.inf)}

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        check_bounds(self)

    def matches(self, hit: int) -> bool:
        return self.hit_index <= hit < self.hit_index + self.count


@dataclass(frozen=True)
class FaultPlan:
    """What to inject where.  Immutable; an empty plan only counts hits.

    ``noise_seed``/``noise_probability`` add a seeded Bernoulli
    transient-error schedule over every ``transient_ok`` site (or the
    explicit ``noise_sites``), independent of the explicit rules.
    """

    rules: Tuple[FaultRule, ...] = ()
    noise_seed: Optional[int] = None
    noise_probability: float = 0.0
    noise_sites: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_probability <= 1.0:
            raise ValueError("noise_probability must be in [0, 1]")
        if self.noise_sites is not None:
            for site in self.noise_sites:
                if site not in FAULT_SITES:
                    raise ValueError(f"unknown fault site {site!r}")

    @classmethod
    def crash_at(cls, site: str, hit_index: int) -> "FaultPlan":
        """Power loss at the ``hit_index``-th hit of ``site``."""
        return cls(rules=(FaultRule(site, hit_index, FaultKind.CRASH),))

    @classmethod
    def io_error_at(cls, site: str, hit_index: int,
                    failures: int = 1) -> "FaultPlan":
        """``failures`` consecutive transient errors starting at a hit."""
        return cls(rules=(
            FaultRule(site, hit_index, FaultKind.IO_ERROR, count=failures),
        ))

    @classmethod
    def transient_noise(cls, seed: int, probability: float,
                        sites: Optional[Sequence[str]] = None) -> "FaultPlan":
        """Seeded random transient errors on the retry-wrapped SSD path."""
        return cls(
            noise_seed=seed,
            noise_probability=probability,
            noise_sites=tuple(sites) if sites is not None else None,
        )

    def noise_applies_to(self, site: str) -> bool:
        if self.noise_seed is None or self.noise_probability <= 0.0:
            return False
        if self.noise_sites is not None:
            return site in self.noise_sites
        return FAULT_SITES[site].transient_ok


@dataclass
class FaultInjector:
    """Counts site hits and fires a :class:`FaultPlan`.

    One injector is shared by every component of a machine (or every
    shard of a fleet): hit indices are global over the run, which is
    what lets the crash matrix name a machine state as "(site, Nth
    hit)".  ``disarm()`` suspends both counting and firing, so setup
    phases (bulk load, baseline checkpoint, recovery itself) never
    shift the indices of the measured region.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    armed: bool = True
    hit_counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._noise_rng = (
            random.Random(self.plan.noise_seed)
            if self.plan.noise_seed is not None else None
        )
        self._fired_crash = False

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def hits(self, site: str) -> int:
        return self.hit_counts.get(site, 0)

    @property
    def total_hits(self) -> int:
        return sum(self.hit_counts.values())

    def hit(self, site: str) -> None:
        """Record one arrival at ``site``; raise if the plan says so."""
        if not self.armed:
            return
        if site not in FAULT_SITES:
            raise ValueError(f"unregistered fault site {site!r}")
        count = self.hit_counts.get(site, 0) + 1
        self.hit_counts[site] = count
        for fault_rule in self.plan.rules:
            if fault_rule.site != site or not fault_rule.matches(count):
                continue
            if fault_rule.kind is FaultKind.CRASH:
                # A crash fires at most once: recovery re-enters these
                # code paths and must not crash again mid-rebuild.
                if self._fired_crash:
                    continue
                self._fired_crash = True
                raise CrashError(site, count)
            raise IoError(site, count)
        if (self._noise_rng is not None
                and self.plan.noise_applies_to(site)
                and self._noise_rng.random() < self.plan.noise_probability):
            raise IoError(site, count)


def describe_sites() -> List[Tuple[str, str]]:
    """(name, description) for every registered site, in order."""
    return [(site.name, site.description) for site in FAULT_SITES.values()]
