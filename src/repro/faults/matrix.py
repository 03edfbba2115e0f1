"""Crash-matrix explorer: every fault site, every hit, one oracle.

``python -m repro crash-matrix`` drives a seeded YCSB trace (with
periodic checkpoints and garbage collection, so the checkpoint and GC
sites actually fire) against a single engine and against a sharded
fleet.  For each scenario it first runs the trace under a counting-only
injector to learn how often every registered fault site is hit, then
for every (site, hit-index) pair re-runs the identical trace, crashes
at exactly that machine state, recovers through the existing recovery
paths, and checks the recovered store against a durable-prefix oracle:

* **durable prefix** — for every key, the recovered value equals the
  value of its last *durable* committed write (the redo records that
  had reached flash at the crash, over the bulk-loaded baseline), where
  a transaction counts only once all of its records are durable; a
  stale value means GC resurrected a dead image, a missing one means a
  committed-and-flushed write was lost, and a torn transaction's write
  means recovery replayed part of one;
* **no lost checkpoint** — recovery itself must succeed: a
  ``RecoveryError`` means a crash window destroyed the only live
  checkpoint image (or left the durable one referencing dropped flash).

An exhausted-retry pass then fails every attempt of one write at each
retry-wrapped site (``log_store.flush``, ``recovery_log.flush``) at the
same sampled hits, drives the trace on past every raise, forces the
log and recovers: recovery must serve exactly what the live engine
served, so a write the live engine refused is never recovered.

Hit indices above ``max_hits_per_site`` are sampled deterministically
(first, last, evenly spaced between), and the report says so — a capped
matrix never silently claims exhaustiveness.
"""

from __future__ import annotations

import argparse
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..bwtree.tree import BwTreeConfig
from ..deuteronomy.engine import DeuteronomyEngine
from ..deuteronomy.tc import TcConfig
from ..frozen import check_bounds
from ..scenarios import Run, Scenario
from ..sharding.engine import ShardedEngine
from ..workloads.ycsb import OpKind, WorkloadGenerator, WorkloadSpec
from .plan import (
    FAULT_SITES,
    CrashError,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
    IoError,
)
from .retry import RetryPolicy, RetryStats

Op = Tuple[str, bytes, Optional[bytes]]

#: Either crash-matrix subject: a single engine or a sharded fleet.
Engine = Union[DeuteronomyEngine, ShardedEngine]

# "-async" variants run the same trace with the epoch-based commit
# pipeline on, so the async-window fault sites (epoch open, pre-ack,
# post-ack) are actually reachable and the durable-prefix oracle covers
# commits whose device ack was still outstanding at the crash.
SCENARIOS = ("engine", "sharded", "engine-async", "sharded-async")

#: The retry-wrapped sites, where a write that fails every attempt
#: raises :class:`IoError` to its caller.
RETRY_SITES = tuple(name for name, site in FAULT_SITES.items()
                    if site.transient_ok)


#: The engine every scenario builds.  Its caches are small enough that
#: even the tiny test traces overflow DRAM and evict, so the
#: demote-not-drop path and its fault sites (``cache.demote`` /
#: ``tier.promote``) run, with a far-tier budget small enough to churn.
TREE_CONFIG = BwTreeConfig(
    segment_bytes=1 << 13,
    cache_capacity_bytes=5 << 10,
    demote_to_tiers=True,
    demote_budget_bytes=8 << 10,
)
#: Sync commit; the "-async" variants turn the pipeline on.  The record
#: cache is deliberately tiny so the traces seal arenas and relocate
#: records (the two ``record_cache.*`` fault sites) many times per run.
TC_CONFIG = TcConfig(
    log_buffer_bytes=2 << 10,
    record_cache=True,
    record_arena_bytes=1 << 10,
    record_cache_bytes=4 << 10,
    record_dirty_flush_bytes=1 << 10,
)
VALUE_BYTES = 64
#: Every Nth write becomes a delete, so the oracle also covers
#: tombstones.
DELETE_EVERY = 11
GC_TARGET = 0.85
CORES = 2


@dataclass(frozen=True)
class MatrixConfig:
    """One crash-matrix run: trace shape, checkpoint/GC cadence,
    sampling."""

    seed: int = 0
    ops: int = 2000
    records: int = 320
    checkpoint_every: int = 250
    gc_every: int = 600
    batch_size: int = 24
    shards: int = 2
    max_hits_per_site: int = 6
    scenarios: Tuple[str, ...] = SCENARIOS

    #: ``max_hits_per_site`` 0 runs every hit.
    BOUNDS = {
        "seed": (-math.inf, math.inf), "ops": (1, math.inf),
        "records": (1, math.inf), "checkpoint_every": (1, math.inf),
        "gc_every": (1, math.inf), "batch_size": (1, math.inf),
        "shards": (1, math.inf), "max_hits_per_site": (0, math.inf),
    }

    def __post_init__(self) -> None:
        check_bounds(self)

    @classmethod
    def smoke(cls, seed: int = 0) -> "MatrixConfig":
        """CI-sized: small trace, every site, one hit each."""
        return cls(
            seed=seed, ops=240, records=96, checkpoint_every=60,
            gc_every=150, batch_size=16, max_hits_per_site=1,
        )


@dataclass(slots=True)
class CaseResult:
    """Outcome of one (scenario, site, hit) crash-and-recover run."""

    scenario: str
    site: str
    hit: int
    crashed: bool = False
    recovered: bool = False
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.crashed and self.recovered and not self.violations


@dataclass
class MatrixReport:
    """Everything one matrix run learned, renderable for the CLI."""

    config: MatrixConfig
    cases: List[CaseResult]
    hit_counts: Dict[str, Dict[str, int]]
    sampled_sites: Dict[str, List[str]]
    noise_retries: Optional[int] = None
    #: The exhausted-retry pass, one case per (scenario, site, hit).
    exhausted: List[CaseResult] = field(default_factory=list)

    @property
    def uncovered_sites(self) -> List[str]:
        """Registered sites no scenario ever hit — a coverage hole."""
        covered = set()
        for counts in self.hit_counts.values():
            covered.update(site for site, n in counts.items() if n > 0)
        return [site for site in FAULT_SITES if site not in covered]

    @property
    def failures(self) -> List[CaseResult]:
        return [case for case in self.cases + self.exhausted if not case.ok]

    @property
    def total_violations(self) -> int:
        return len(self.failures) + len(self.uncovered_sites)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def render(self) -> str:
        lines = []
        for scenario in self.config.scenarios:
            counts = self.hit_counts.get(scenario, {})
            lines.append(f"scenario {scenario}:")
            for site in FAULT_SITES:
                n = counts.get(site, 0)
                ran = sum(1 for c in self.cases
                          if c.scenario == scenario and c.site == site)
                bad = sum(1 for c in self.cases
                          if c.scenario == scenario and c.site == site
                          and not c.ok)
                sampled = (" (sampled)"
                           if site in self.sampled_sites.get(scenario, [])
                           else "")
                status = "FAIL" if bad else ("ok" if ran else "-")
                lines.append(
                    f"  {site:34s} hits={n:4d} cases={ran:3d}"
                    f" {status}{sampled}"
                )
        if self.noise_retries is not None:
            lines.append(
                f"transient-noise pass: {self.noise_retries} retries "
                "charged, final state verified"
            )
        lines.append(
            f"exhausted-retry pass: {len(self.exhausted)} cases at "
            f"{', '.join(RETRY_SITES)}, recovered state == live state"
        )
        for site in self.uncovered_sites:
            lines.append(f"VIOLATION: site {site} never hit by any scenario")
        for kind, group in (("crash", self.cases),
                            ("retries exhausted", self.exhausted)):
            for case in group:
                if case.ok:
                    continue
                head = (f"VIOLATION: {case.scenario} {case.site} "
                        f"hit {case.hit} ({kind}): ")
                if not case.crashed:
                    lines.append(head + "scheduled fault never fired")
                elif not case.recovered:
                    lines.append(head + (case.violations[0]
                                         if case.violations
                                         else "recovery failed"))
                else:
                    for violation in case.violations[:4]:
                        lines.append(head + violation)
        lines.append(
            f"crash matrix: {len(self.cases)} cases, "
            f"{self.total_violations} violations"
        )
        return "\n".join(lines)


# --- trace construction ---------------------------------------------------


def build_trace(config: MatrixConfig) -> Tuple[Dict[bytes, bytes], List[Op]]:
    """The seeded baseline load and operation list, built once per run."""
    spec = WorkloadSpec.ycsb_a(
        record_count=config.records,
        value_bytes=VALUE_BYTES,
        seed=config.seed,
    )
    generator = WorkloadGenerator(spec)
    baseline = dict(generator.load_items())
    ops: List[Op] = []
    writes = 0
    for operation in generator.operations(config.ops):
        if operation.kind is OpKind.READ:
            ops.append(("get", operation.key, None))
            continue
        writes += 1
        if writes % DELETE_EVERY == 0:
            ops.append(("delete", operation.key, None))
        else:
            ops.append(("put", operation.key, operation.value))
    return baseline, ops


# --- scenario plumbing ----------------------------------------------------


def _start(scenario: str, config: MatrixConfig, baseline: Dict[bytes, bytes],
           injector: FaultInjector) -> Run:
    """A fresh engine (or fleet), built by :meth:`Scenario.build`, with
    every machine sharing ``injector``: loaded with the baseline and
    checkpointed while it is disarmed, then armed."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    run = Scenario(
        shards=config.shards if scenario.startswith("sharded") else 0,
        cores=CORES,
        tree_config=TREE_CONFIG,
        tc_config=(replace(TC_CONFIG, commit_pipeline=True)
                   if scenario.endswith("-async") else TC_CONFIG),
    ).build()
    injector.disarm()
    for machine in run.machines:
        machine.faults = injector
    run.engine.bulk_load(sorted(baseline.items()))
    run.engine.checkpoint()
    injector.arm()
    return run


def _drive(run: Run, ops: Sequence[Op], config: MatrixConfig,
           errors: Tuple[type, ...] = ()) -> None:
    """Replay the trace with periodic checkpoints and GC passes: per op
    on a bare engine, in ``apply_batch`` chunks on a fleet.

    An op, batch, checkpoint or GC pass that raises one of ``errors``
    is skipped, and the trace goes on.
    """
    def attempt(call: Callable[..., object], *args: object) -> None:
        try:
            call(*args)
        except errors:
            pass

    engine = run.engine
    if not run.scenario.shards:
        for index, (kind, key, value) in enumerate(ops, start=1):
            if kind == "get":
                attempt(engine.get, key)
            elif kind == "put":
                attempt(engine.put, key, value)
            else:
                attempt(engine.delete, key)
            if index % config.checkpoint_every == 0:
                attempt(engine.checkpoint)
            if index % config.gc_every == 0:
                attempt(engine.collect_garbage, GC_TARGET)
        return
    done = 0
    for start in range(0, len(ops), config.batch_size):
        batch = list(ops[start:start + config.batch_size])
        attempt(engine.apply_batch, batch)
        before, done = done, done + len(batch)
        if done // config.checkpoint_every != before // config.checkpoint_every:
            attempt(engine.checkpoint)
        if done // config.gc_every != before // config.gc_every:
            for shard in run.shards:
                attempt(shard.collect_garbage, GC_TARGET)


def _durable_view(shards: Sequence[DeuteronomyEngine],
                  baseline: Dict[bytes, bytes],
                  sizes: Optional[Sequence[Counter]] = None,
                  ) -> Dict[bytes, bytes]:
    """What a correct recovery must serve: the last durable value per key.

    Recovery is checkpoint image + durable-log replay, and every durable
    checkpoint's content is covered by the durable log (the log is
    forced before pages are checkpointed), so the durable floor and
    ceiling coincide: exactly the last durable record per key of a
    whole transaction, over the bulk-loaded baseline for never-durably-
    written keys.  ``sizes`` holds, per shard, the records each commit
    timestamp's transaction wrote in an uncrashed run of the same trace
    (:func:`_count_hits`); a transaction with fewer durable records was
    torn by the crash and counts for nothing.  ``None`` is for traces
    whose every transaction wrote one record (autocommit puts and
    deletes), which no crash can tear.
    """
    expected = dict(baseline)
    for index, shard in enumerate(shards):
        durable = shard.tc.log.durable_records
        if sizes is not None:
            whole = sizes[index]
            seen = Counter(record.timestamp for record in durable)
            durable = [record for record in durable
                       if seen[record.timestamp] == whole[record.timestamp]]
        for record in durable:
            if record.value is None:
                expected.pop(record.key, None)
            else:
                expected[record.key] = record.value
    return expected


def _check_oracle(recovered: Engine, expected: Dict[bytes, bytes],
                  keys: Sequence[bytes]) -> List[str]:
    violations: List[str] = []
    for key in keys:
        want = expected.get(key)
        got = recovered.get(key)
        if got != want:
            violations.append(
                f"key {key!r}: recovered {got!r} != durable {want!r}"
            )
            if len(violations) >= 8:
                violations.append("... further key mismatches elided")
                break
    return violations


# --- the matrix -----------------------------------------------------------


def _sample_hits(total: int, cap: int) -> List[int]:
    """Deterministic spread over 1..total: first, last, evenly between."""
    if total <= 0:
        return []
    if cap <= 0 or total <= cap:
        return list(range(1, total + 1))
    if cap == 1:
        return [1]
    step = (total - 1) / (cap - 1)
    return sorted({round(1 + index * step) for index in range(cap)})


def _count_hits(scenario: str, config: MatrixConfig,
                baseline: Dict[bytes, bytes], ops: Sequence[Op],
                ) -> Tuple[Dict[str, int], List[Counter]]:
    """Drive the trace uncrashed under a counting-only injector.

    Returns how often each fault site was hit and, per shard, how many
    redo records each commit timestamp's transaction wrote (the log is
    forced once the trace is done, so every record is counted): the
    whole-transaction sizes :func:`_durable_view` checks against.
    """
    injector = FaultInjector()
    run = _start(scenario, config, baseline, injector)
    _drive(run, ops, config)
    injector.disarm()
    for shard in run.shards:
        shard.tc.sync_log()
    sizes = [Counter(record.timestamp
                     for record in shard.tc.log.durable_records)
             for shard in run.shards]
    return dict(injector.hit_counts), sizes


def run_case(scenario: str, config: MatrixConfig,
             baseline: Dict[bytes, bytes], ops: Sequence[Op],
             site: str, hit: int,
             sizes: Optional[Sequence[Counter]] = None) -> CaseResult:
    """Crash the trace at (site, hit), recover, check the oracle.

    ``sizes`` are the uncrashed run's transaction sizes
    (:func:`_count_hits`); ``None`` runs the trace once uncrashed to
    learn them.
    """
    if sizes is None:
        __, sizes = _count_hits(scenario, config, baseline, ops)
    result = CaseResult(scenario=scenario, site=site, hit=hit)
    injector = FaultInjector(FaultPlan.crash_at(site, hit))
    run = _start(scenario, config, baseline, injector)
    try:
        _drive(run, ops, config)
    except CrashError as crash:
        result.crashed = (crash.site == site and crash.hit == hit)
    injector.disarm()
    if not result.crashed:
        return result
    expected = _durable_view(run.shards, baseline, sizes)
    keys = sorted(set(baseline) | set(expected))
    try:
        recovered = type(run.engine).recover(run.engine)
    except Exception as exc:  # RecoveryError and anything like it
        result.violations.append(f"recovery failed: {exc!r}")
        return result
    result.recovered = True
    result.violations = _check_oracle(recovered, expected, keys)
    return result


def run_exhausted_case(scenario: str, config: MatrixConfig,
                       baseline: Dict[bytes, bytes], ops: Sequence[Op],
                       site: str, hit: int) -> CaseResult:
    """Fail every attempt of the write at (site, hit), drive the trace
    on past each raise, force the log, recover, and check that recovery
    serves exactly what the live engine served."""
    result = CaseResult(scenario=scenario, site=site, hit=hit)
    injector = FaultInjector(FaultPlan(rules=(FaultRule(
        site, hit, FaultKind.IO_ERROR, count=RetryPolicy().max_attempts),)))
    run = _start(scenario, config, baseline, injector)
    _drive(run, ops, config, errors=(IoError,))
    injector.disarm()
    result.crashed = injector.hits(site) >= hit
    keys = sorted(set(baseline) | {key for __, key, __ in ops})
    live = {key: run.engine.get(key) for key in keys}
    for shard in run.shards:
        shard.tc.sync_log()
    try:
        recovered = type(run.engine).recover(run.engine)
    except Exception as exc:  # RecoveryError and anything like it
        result.violations.append(f"recovery failed: {exc!r}")
        return result
    result.recovered = True
    result.violations = _check_oracle(recovered, live, keys)
    return result


def _noise_pass(config: MatrixConfig, baseline: Dict[bytes, bytes],
                ops: Sequence[Op], probability: float) -> Tuple[int, List[str]]:
    """Drive the trace under seeded transient I/O noise on the SSD path.

    Returns total retries charged and any final-state violations — the
    end-to-end check that retried I/O neither loses data nor goes
    uncharged.  One explicit transient error per retry-wrapped site is
    planned on top of the seeded noise, so the retry path is exercised
    even when a short trace's noise draws all land above ``probability``.
    """
    noise = FaultPlan.transient_noise(config.seed, probability)
    injector = FaultInjector(FaultPlan(
        rules=tuple(FaultRule(site, 1, FaultKind.IO_ERROR)
                    for site in RETRY_SITES),
        noise_seed=noise.noise_seed,
        noise_probability=noise.noise_probability,
    ))
    run = _start("engine", config, baseline, injector)
    _drive(run, ops, config)
    injector.disarm()
    engine = run.engine
    stats: List[RetryStats] = [
        engine.dc.store.retry_stats, engine.tc.log.retry_stats,
    ]
    retries = sum(stat.retries for stat in stats)
    # Under pure transient noise nothing is lost: the final state must
    # match the in-memory expectation exactly.
    expected = dict(baseline)
    for kind, key, value in ops:
        if kind == "put":
            expected[key] = value
        elif kind == "delete":
            expected.pop(key, None)
    violations = []
    for key in sorted(set(baseline) | set(expected)):
        got = engine.get(key)
        if got != expected.get(key):
            violations.append(
                f"noise pass key {key!r}: {got!r} != {expected.get(key)!r}"
            )
            if len(violations) >= 8:
                break
    return retries, violations


def run_matrix(
    config: MatrixConfig,
    noise_probability: float = 0.0,
    progress: Optional[Callable[[CaseResult], None]] = None,
) -> MatrixReport:
    """Count hits, then crash-and-recover every sampled (site, hit) pair,
    then exhaust the retries at every sampled hit of each retry site."""
    baseline, ops = build_trace(config)
    cases: List[CaseResult] = []
    exhausted: List[CaseResult] = []
    hit_counts: Dict[str, Dict[str, int]] = {}
    sampled: Dict[str, List[str]] = {}
    for scenario in config.scenarios:
        counts, sizes = _count_hits(scenario, config, baseline, ops)
        hit_counts[scenario] = counts
        sampled[scenario] = []
        for site in FAULT_SITES:
            total = counts.get(site, 0)
            hits = _sample_hits(total, config.max_hits_per_site)
            if len(hits) < total:
                sampled[scenario].append(site)
            for hit in hits:
                case = run_case(scenario, config, baseline, ops, site, hit,
                                sizes)
                cases.append(case)
                if progress is not None:
                    progress(case)
        for site in RETRY_SITES:
            for hit in _sample_hits(counts.get(site, 0),
                                    config.max_hits_per_site):
                case = run_exhausted_case(scenario, config, baseline, ops,
                                          site, hit)
                exhausted.append(case)
                if progress is not None:
                    progress(case)
    report = MatrixReport(
        config=config, cases=cases,
        hit_counts=hit_counts, sampled_sites=sampled, exhausted=exhausted,
    )
    if noise_probability > 0.0:
        retries, violations = _noise_pass(
            config, baseline, ops, noise_probability
        )
        report.noise_retries = retries
        for violation in violations:
            extra = CaseResult(
                scenario="engine", site="log_store.flush", hit=0,
                crashed=True, recovered=True, violations=[violation],
            )
            cases.append(extra)
    return report


# --- CLI ------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro crash-matrix",
        description=(
            "Deterministic crash-matrix: crash a seeded YCSB trace at "
            "every registered fault site and hit index, recover, and "
            "check the durable-prefix oracle."
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=2000,
                        help="trace length (default 2000)")
    parser.add_argument("--records", type=int, default=None,
                        help="baseline record count")
    parser.add_argument("--shards", type=int, default=None,
                        help="fleet size for the sharded scenario")
    parser.add_argument("--max-hits", type=int, default=None,
                        help="cap on tested hit indices per site "
                             "(deterministically sampled beyond it)")
    parser.add_argument("--scenario",
                        choices=SCENARIOS + ("both",),
                        default="both",
                        help="one scenario, or 'both' for all of them "
                             "(sync and async commit variants)")
    parser.add_argument("--noise", type=float, default=0.0, metavar="PROB",
                        help="also run a transient-I/O-noise pass at this "
                             "per-access failure probability")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small trace, all sites, "
                             "1 hit each, plus a noise pass")
    parser.add_argument("--list-sites", action="store_true",
                        help="print the fault-site registry and exit")
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_sites:
        for site in FAULT_SITES.values():
            transient = " [transient-ok]" if site.transient_ok else ""
            print(f"{site.name:34s}{transient}\n    {site.description}")
        return 0

    if args.smoke:
        config = MatrixConfig.smoke(seed=args.seed)
        noise = args.noise or 0.2
    else:
        config = MatrixConfig(seed=args.seed, ops=args.ops)
        noise = args.noise
    overrides: Dict[str, object] = {}
    if args.records is not None:
        overrides["records"] = args.records
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.max_hits is not None:
        overrides["max_hits_per_site"] = args.max_hits
    if args.scenario != "both":
        overrides["scenarios"] = (args.scenario,)
    if overrides:
        config = replace(config, **overrides)

    report = run_matrix(config, noise_probability=noise)
    print(report.render())
    return 0 if report.ok else 1
