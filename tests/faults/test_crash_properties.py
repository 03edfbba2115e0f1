"""Property tests: random traces crashed at random sites still recover.

The crash matrix enumerates one seeded trace exhaustively; these
properties sample the broader space — any (seed, site, hit) triple must
either never reach the crash point or recover onto the durable prefix,
recovery must be idempotent, and a recovered fleet's accounting must
total the recovered shards' live machines.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.deuteronomy import DeuteronomyEngine
from repro.faults import FAULT_SITES, CrashError, FaultInjector, FaultPlan
from repro.faults.matrix import (
    SCENARIOS as MATRIX_SCENARIOS,
    MatrixConfig,
    _count_hits,
    _drive,
    _durable_view,
    _start,
    build_trace,
    run_case,
)
from repro.sharding.engine import ShardedEngine

SITES = st.sampled_from(sorted(FAULT_SITES))
SEEDS = st.integers(min_value=0, max_value=2**16)
HITS = st.integers(min_value=1, max_value=5)
SCENARIOS = st.sampled_from(sorted(MATRIX_SCENARIOS))


def tiny_config(seed: int) -> MatrixConfig:
    return MatrixConfig(
        seed=seed, ops=120, records=48, checkpoint_every=30,
        gc_every=60, batch_size=12, max_hits_per_site=1,
    )


def crash_somewhere(scenario, config, baseline, ops, site, hit):
    """Drive the trace under a crash plan; returns the crashed run or
    None if (site, hit) was never reached."""
    injector = FaultInjector(FaultPlan.crash_at(site, hit))
    run = _start(scenario, config, baseline, injector)
    try:
        _drive(run, ops, config)
    except CrashError:
        injector.disarm()
        return run
    return None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=SEEDS, site=SITES, hit=HITS, scenario=SCENARIOS)
def test_any_reachable_crash_recovers_to_durable_prefix(
        seed, site, hit, scenario):
    config = tiny_config(seed)
    baseline, ops = build_trace(config)
    case = run_case(scenario, config, baseline, ops, site, hit)
    if not case.crashed:
        return   # (site, hit) not reachable on this trace: vacuous
    assert case.recovered, case.violations
    assert case.violations == [], case.violations


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=SEEDS, site=SITES, hit=HITS)
def test_recover_twice_is_recover_once(seed, site, hit):
    config = tiny_config(seed)
    baseline, ops = build_trace(config)
    run = crash_somewhere("engine", config, baseline, ops, site, hit)
    if run is None:
        return
    crashed = run.engine
    expected = _durable_view([crashed], baseline)
    first = DeuteronomyEngine.recover(crashed)
    second = DeuteronomyEngine.recover(crashed)
    assert second is first
    for key in sorted(set(baseline) | set(expected)):
        assert first.get(key) == expected.get(key)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=SEEDS, site=SITES, hit=HITS)
def test_recovered_fleet_stats_stay_additive(seed, site, hit):
    config = tiny_config(seed)
    baseline, ops = build_trace(config)
    run = crash_somewhere("sharded", config, baseline, ops, site, hit)
    if run is None:
        return
    recovered = ShardedEngine.recover(run.engine)
    # A shard's sub-batch is one transaction a crash can tear.
    __, sizes = _count_hits("sharded", config, baseline, ops)
    expected = _durable_view(run.shards, baseline, sizes)
    for key in sorted(baseline):
        assert recovered.get(key) == expected.get(key)
    # Recovery swapped every shard; the fleet bill (Eqs. 4-5) must total
    # the replacements' live machines, not the crashed engines'.
    fleet = recovered.stats()["fleet"]
    machines = [shard.machine for shard in recovered.shards]
    assert fleet["core_seconds"] == sum(m.cpu.busy_seconds for m in machines)
    assert fleet["dram_bytes"] == sum(m.dram.current_bytes for m in machines)
