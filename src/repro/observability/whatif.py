"""``python -m repro whatif``: a virtual causal profiler over trace spans.

Coz-style causal profiling answers "what would happen to end-to-end
performance if component X were ``k`` times faster?" — on real hardware
the answer is statistical (Coz slows everything *else* down and
extrapolates).  On this repo's virtual clock it can be **exact**: every
core-microsecond a component bills goes through one billing sequence
(:meth:`repro.hardware.cpu.CpuModel.charge`), so replaying the same
seeded trace with that component's charges scaled yields the true
fleet-level delta, not an estimate.

The profiler does both halves and makes them race:

* **prediction** — run the baseline once with a
  :class:`ChargeRecorder` attached as the CPU's
  :class:`~repro.hardware.cpu.ChargeSink`, then *fold* the recorded
  charge stream with the scale factor applied to the chosen
  component's categories.  Because the fold repeats the exact float
  additions the CPU model would perform, the predicted busy time is
  bit-identical to what a scaled run computes — no model, no fitting.
* **validation** — actually re-run the identical trace with the
  scaling installed (:meth:`repro.hardware.cpu.CpuModel.scale_costs`
  for CPU components, :meth:`repro.hardware.ssd.SsdSpec.scaled` for
  devices) and assert agreement per the contract below.

Agreement contract (:func:`check_agreement`):

* ``exact`` — CPU components under synchronous commit: control flow is
  clock-independent, so prediction and validation agree **bit for
  bit** (busy scalars, per-category counters, elapsed, $-per-op).
* ``float-assoc`` — the ``ssd`` device under synchronous commit: the
  scaled run computes ``max(1/(iops*k), b/(bw*k))`` per access while
  the prediction divides the accumulated busy total once; float
  association differences bound the error at
  :data:`FLOAT_ASSOC_REL_TOL`.
* ``queueing`` — any run with the asynchronous commit pipeline, and
  the ``log_device`` component always: epoch closes compare the
  virtual clock against ``commit_interval_us``, so scaling shifts
  epoch boundaries, ack drains and device write counts — real
  nonlinearity the linear fold cannot see.  Predictions must agree
  within :data:`QUEUEING_REL_TOL` (measured headroom over the worst
  case observed in the test matrix; see docs/PROFILING.md).

Deltas are reported in the paper's Eq. (4)-(5) terms (execution
``$P/ROPS``, I/O ``$I/IOPS``, DRAM rent ``Ps*$M``) so the ranked
"top causal bottlenecks" table names the next optimization directly in
dollars per operation.  Everything runs on virtual time; the same seed
and config produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.catalog import CostCatalog
from ..core.costmeter import price_run
from ..hardware.ssd import SsdSpec
from ..scenarios import (
    ASYNC_COMMIT,
    MIX_BUILDERS,
    SYNC_COMMIT,
    Scenario,
    fleet_totals,
)
from ..sharding.engine import LOG_TOPOLOGIES
from .spans import COMPONENT_OF_CATEGORY

#: Pseudo-components naming hardware rather than CPU cost categories:
#: ``ssd`` scales every simulated drive (data and, in a fleet, any log
#: drives built from the machine spec); ``log_device`` scales only the
#: commit-log drive of the "shared" topology.
DEVICE_SSD = "ssd"
DEVICE_LOG = "log_device"
DEVICE_COMPONENTS = (DEVICE_SSD, DEVICE_LOG)

#: Agreement contracts (see module docstring).
CONTRACT_EXACT = "exact"
CONTRACT_FLOAT_ASSOC = "float-assoc"
CONTRACT_QUEUEING = "queueing"

#: Association-only error bound: regrouping the same float terms
#: (dividing a sum once vs summing divided terms) differs by ULPs.
FLOAT_ASSOC_REL_TOL = 1e-9

#: Documented tolerance for the ``queueing`` contract.  Epoch-boundary
#: shifts change how many device writes (and ack/resolve charges) a
#: pipelined run performs.  At the default commit window (50 us) the
#: boundaries are insensitive to moderate speedups and measured errors
#: are ~0; shrinking the window toward one batch's clock advance makes
#: epoch counts clock-sensitive (the deliberately nonlinear test case
#: at a 0.5 us window measures 4-8% error at 2-4x speedups).  The bound
#: leaves headroom over those; a *pathological* window (at or below a
#: single batch's advance) can exceed it, and :func:`check_agreement`
#: then fails loudly — the tool telling you the linear model does not
#: apply to that configuration.
QUEUEING_REL_TOL = 0.25


class ChargeRecorder:
    """A :class:`~repro.hardware.cpu.ChargeSink` that records the raw
    charge stream.

    Installed as ``machine.cpu.sink`` right after
    ``reset_accounting()``, it sees every charge in billing order with
    the exact amount added to ``busy_us`` — the stream a what-if
    prediction folds to reproduce a scaled run's accounting bit for
    bit.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Tuple[str, float]] = []

    def on_charge(self, category: str, microseconds: float) -> None:
        self.events.append((category, microseconds))


@dataclass
class ShardView:
    """One shard machine's accounting over the measured window."""

    cores: int
    busy_us: float
    ssd_busy_seconds: float
    ssd_ios: float
    #: Dedicated log drive's elapsed floor (0.0 when colocated/shared).
    log_busy_seconds: float
    #: Per-category core-microseconds (``cpu_us.*`` counters).
    categories: Dict[str, float]
    #: The raw charge stream (baseline runs only; ``None`` otherwise).
    charges: Optional[List[Tuple[str, float]]] = None


@dataclass
class RunView:
    """A run's accounting, shaped so prediction and validation compare
    field-for-field (per shard plus fleet-level floors)."""

    config: Scenario
    ops: int
    shards: List[ShardView]
    #: Shared log drive's total busy seconds (fleet elapsed floor;
    #: 0.0 outside the "shared" topology).
    shared_log_busy_seconds: float
    dram_bytes: int


@dataclass(frozen=True)
class WhatifSummary:
    """Fleet-level outcome of one (possibly hypothetical) run, priced
    in the paper's Eq. (4)-(5) terms."""

    ops: int
    core_seconds: float
    elapsed_seconds: float
    ssd_ios: float
    dram_bytes: int
    ops_per_sec: float
    core_us_per_op: float
    exec_dollars_per_op: float
    io_dollars_per_op: float
    dram_dollars_per_op: float
    dollars_per_op: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "ops": self.ops,
            "core_seconds": self.core_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "ssd_ios": self.ssd_ios,
            "dram_bytes": self.dram_bytes,
            "ops_per_sec": self.ops_per_sec,
            "core_us_per_op": self.core_us_per_op,
            "exec_dollars_per_op": self.exec_dollars_per_op,
            "io_dollars_per_op": self.io_dollars_per_op,
            "dram_dollars_per_op": self.dram_dollars_per_op,
            "dollars_per_op": self.dollars_per_op,
        }


# ---------------------------------------------------------------------------
# running a scenario (baseline or scaled validation)
# ---------------------------------------------------------------------------

def run_scenario(
    config: Scenario,
    cpu_factors: Optional[Mapping[str, float]] = None,
    ssd_factor: Optional[float] = None,
    log_factor: Optional[float] = None,
    record: bool = False,
) -> RunView:
    """Load, warm and replay one scenario; returns its :class:`RunView`.

    ``cpu_factors`` installs per-category charge scaling
    (:meth:`repro.hardware.cpu.CpuModel.scale_costs`) on every shard
    machine; ``ssd_factor``/``log_factor`` build the run on
    :meth:`repro.hardware.ssd.SsdSpec.scaled` devices.  ``record``
    attaches a :class:`ChargeRecorder` per shard (baseline runs).
    Scaling and recording both start *after* ``prepare()`` resets
    accounting, so the measured window matches the tracing baseline
    exactly.
    """
    if ssd_factor is not None and log_factor is not None:
        raise ValueError("scale one device component at a time")
    run = config.prepare(
        ssd_spec=(SsdSpec().scaled(ssd_factor)
                  if ssd_factor is not None else None),
        log_ssd_spec=(SsdSpec().scaled(log_factor)
                      if log_factor is not None else None),
    )
    recorders: List[Optional[ChargeRecorder]] = []
    for machine in run.machines:
        recorder = ChargeRecorder() if record else None
        machine.cpu.sink = recorder
        recorders.append(recorder)
        if cpu_factors is not None:
            machine.cpu.scale_costs(dict(cpu_factors))

    run.drive()

    views: List[ShardView] = []
    for shard, recorder in zip(run.shards, recorders):
        machine = shard.machine
        pipeline = shard.tc.pipeline
        device = pipeline.device if pipeline is not None else None
        log_busy = (device.elapsed_contribution()
                    if device is not None else 0.0)
        categories = {
            name[len("cpu_us."):]: value
            for name, value in machine.cpu.counters.snapshot().items()
            if name.startswith("cpu_us.")
        }
        views.append(ShardView(
            cores=machine.cpu.cores,
            busy_us=machine.cpu.busy_us,
            ssd_busy_seconds=machine.ssd.busy_seconds,
            ssd_ios=machine.ssd.total_ios,
            log_busy_seconds=log_busy,
            categories=categories,
            charges=recorder.events if recorder is not None else None,
        ))
    view = RunView(
        config=config,
        ops=config.op_count,
        shards=views,
        shared_log_busy_seconds=(run.engine.shared_log_busy_seconds
                                 if config.shards else 0.0),
        dram_bytes=sum(m.dram.current_bytes for m in run.machines),
    )
    _assert_mirrors_stats(view, run.engine.stats())
    return view


def _assert_mirrors_stats(view: RunView, stats: dict) -> None:
    """The view must reproduce ``stats()`` accounting bit for bit —
    this is what makes predicted and actual summaries comparable."""
    target = fleet_totals(stats)
    core = sum(shard.busy_us * 1e-6 for shard in view.shards)
    assert core == target["core_seconds"], (
        f"view core-seconds {core!r} != stats {target['core_seconds']!r}"
    )
    elapsed = _fleet_elapsed(view)
    assert elapsed == target["elapsed_seconds"], (
        f"view elapsed {elapsed!r} != stats {target['elapsed_seconds']!r}"
    )
    ios = sum(shard.ssd_ios for shard in view.shards)
    assert ios == target["ssd_ios"], (
        f"view ssd ios {ios!r} != stats {target['ssd_ios']!r}"
    )
    assert view.dram_bytes == target["dram_bytes"]


def _shard_elapsed(shard: ShardView) -> float:
    """One shard's virtual elapsed time: slower of CPU and data SSD,
    floored by a non-colocated log drive (mirrors ``stats()`` exactly)."""
    elapsed = max(shard.busy_us * 1e-6 / shard.cores,
                  shard.ssd_busy_seconds)
    return max(elapsed, shard.log_busy_seconds)


def _fleet_elapsed(view: RunView) -> float:
    """Fleet virtual elapsed: slowest shard, floored by the shared log
    drive's total busy time (mirrors ``ShardedEngine.stats``)."""
    elapsed = max((_shard_elapsed(shard) for shard in view.shards),
                  default=0.0)
    return max(elapsed, view.shared_log_busy_seconds)


def summarize(view: RunView,
              catalog: Optional[CostCatalog] = None) -> WhatifSummary:
    """Price a run in Eq. (4)-(5) terms
    (:func:`repro.core.costmeter.price_run`: execution, data-SSD I/O and
    DRAM rent — the terms a component speedup can move).

    Applied identically to baseline, predicted and validated views, so
    bit-equal inputs price to bit-equal dollars.
    """
    ops = view.ops
    core_seconds = sum(shard.busy_us * 1e-6 for shard in view.shards)
    ssd_ios = sum(shard.ssd_ios for shard in view.shards)
    elapsed = _fleet_elapsed(view)
    price = price_run(
        ops=ops,
        cores=view.shards[0].cores,
        core_seconds=core_seconds,
        elapsed_seconds=elapsed,
        ssd_ios=ssd_ios,
        dram_bytes=view.dram_bytes,
        catalog=catalog,
    )
    return WhatifSummary(
        ops=ops,
        core_seconds=core_seconds,
        elapsed_seconds=elapsed,
        ssd_ios=ssd_ios,
        dram_bytes=view.dram_bytes,
        ops_per_sec=(ops / elapsed) if elapsed else 0.0,
        core_us_per_op=core_seconds * 1e6 / ops,
        exec_dollars_per_op=price.exec_dollars_per_op,
        io_dollars_per_op=price.io_dollars_per_op,
        dram_dollars_per_op=price.dram_dollars_per_op,
        dollars_per_op=price.dollars_per_op,
    )


# ---------------------------------------------------------------------------
# prediction: fold the recorded charge stream
# ---------------------------------------------------------------------------

def categories_for(component: str) -> frozenset:
    """The CPU cost categories a component's speedup scales.

    The span component mapping (:data:`COMPONENT_OF_CATEGORY`) plus the
    component's own name (categories without an explicit mapping, e.g.
    ``router``, report under themselves).
    """
    names = {category for category, comp in COMPONENT_OF_CATEGORY.items()
             if comp == component}
    names.add(component)
    return frozenset(names)


def available_components(baseline: RunView) -> List[str]:
    """Components a what-if can scale in this scenario, sorted: every
    CPU component that billed anything, plus the device pseudo-
    components that exist in the topology."""
    names = {
        COMPONENT_OF_CATEGORY.get(category, category)
        for shard in baseline.shards
        for category in shard.categories
    }
    if any(shard.ssd_busy_seconds > 0.0 for shard in baseline.shards):
        names.add(DEVICE_SSD)
    if baseline.config.log_topology != "colocated":
        names.add(DEVICE_LOG)
    return sorted(names)


def predict(baseline: RunView, component: str, speedup: float) -> RunView:
    """The linear what-if: ``baseline`` with ``component`` made
    ``speedup`` times faster, computed from the recorded charge stream
    (no re-run).

    For CPU components this folds each shard's charge stream with the
    per-category factor ``1/speedup`` applied exactly the way
    :meth:`repro.hardware.cpu.CpuModel.charge` applies it, so the
    predicted busy scalar and per-category counters are bit-identical
    to a scaled run's — as long as the scaling does not feed back into
    control flow (the ``exact`` contract).  Device components divide
    the relevant busy floors instead.
    """
    if not 0.0 < speedup < math.inf:
        raise ValueError(
            f"speedup must be positive and finite, got {speedup}")
    if component == DEVICE_SSD:
        shards = [ShardView(
            cores=s.cores,
            busy_us=s.busy_us,
            ssd_busy_seconds=s.ssd_busy_seconds / speedup,
            ssd_ios=s.ssd_ios,
            log_busy_seconds=s.log_busy_seconds / speedup,
            categories=dict(s.categories),
        ) for s in baseline.shards]
        shared = baseline.shared_log_busy_seconds / speedup
    elif component == DEVICE_LOG:
        shards = [ShardView(
            cores=s.cores,
            busy_us=s.busy_us,
            ssd_busy_seconds=s.ssd_busy_seconds,
            ssd_ios=s.ssd_ios,
            log_busy_seconds=s.log_busy_seconds / speedup,
            categories=dict(s.categories),
        ) for s in baseline.shards]
        shared = baseline.shared_log_busy_seconds / speedup
    else:
        factor = 1.0 / speedup
        factors = {name: factor for name in categories_for(component)}
        shards = []
        for s in baseline.shards:
            if s.charges is None:
                raise ValueError(
                    "baseline has no recorded charge stream; run it "
                    "with record=True"
                )
            busy, categories = _fold(s.charges, factors)
            shards.append(ShardView(
                cores=s.cores,
                busy_us=busy,
                ssd_busy_seconds=s.ssd_busy_seconds,
                ssd_ios=s.ssd_ios,
                log_busy_seconds=s.log_busy_seconds,
                categories=categories,
            ))
        shared = baseline.shared_log_busy_seconds
    return RunView(
        config=baseline.config,
        ops=baseline.ops,
        shards=shards,
        shared_log_busy_seconds=shared,
        dram_bytes=baseline.dram_bytes,
    )


def _fold(
    charges: Sequence[Tuple[str, float]],
    factors: Mapping[str, float],
) -> Tuple[float, Dict[str, float]]:
    """Replay a charge stream with per-category factors, reproducing
    the CPU model's own accumulation order float-for-float."""
    busy = 0.0
    categories: Dict[str, float] = {}
    for category, microseconds in charges:
        factor = factors.get(category)
        if factor is not None:
            microseconds = microseconds * factor
        busy += microseconds
        categories[category] = categories.get(category, 0.0) + microseconds
    return busy, categories


# ---------------------------------------------------------------------------
# the prediction-vs-validation contract
# ---------------------------------------------------------------------------

def contract_for(config: Scenario, component: str) -> str:
    """Which agreement contract a (scenario, component) pair falls
    under (see module docstring)."""
    if component == DEVICE_LOG:
        return CONTRACT_QUEUEING
    if config.tc_config.commit_pipeline:
        return CONTRACT_QUEUEING
    if component == DEVICE_SSD:
        return CONTRACT_FLOAT_ASSOC
    return CONTRACT_EXACT


def _rel_err(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


def check_agreement(
    predicted: RunView,
    actual: RunView,
    contract: str,
    catalog: Optional[CostCatalog] = None,
) -> Dict[str, object]:
    """Assert a prediction matches its validation run per ``contract``;
    returns the measured errors.

    * ``exact``: busy scalars, per-category counters, elapsed, I/Os and
      every dollar term must be **bit-identical** (``==``, no
      tolerance).
    * ``float-assoc``: CPU accounting and I/O counts stay bit-identical
      (the device scaling never touches them); elapsed and dollars may
      differ by float association only (:data:`FLOAT_ASSOC_REL_TOL`).
    * ``queueing``: everything may shift with epoch boundaries; relative
      errors must stay within :data:`QUEUEING_REL_TOL`.
    """
    p = summarize(predicted, catalog)
    a = summarize(actual, catalog)
    errors: Dict[str, object] = {
        "contract": contract,
        "core_seconds_rel_err": _rel_err(p.core_seconds, a.core_seconds),
        "elapsed_rel_err": _rel_err(p.elapsed_seconds, a.elapsed_seconds),
        "ssd_ios_rel_err": _rel_err(p.ssd_ios, a.ssd_ios),
        "dollars_rel_err": _rel_err(p.dollars_per_op, a.dollars_per_op),
    }
    if contract == CONTRACT_EXACT:
        pred_busy = [s.busy_us for s in predicted.shards]
        act_busy = [s.busy_us for s in actual.shards]
        assert pred_busy == act_busy, (
            f"exact contract: busy_us {pred_busy!r} != {act_busy!r}"
        )
        pred_cats = [s.categories for s in predicted.shards]
        act_cats = [s.categories for s in actual.shards]
        assert pred_cats == act_cats, (
            "exact contract: per-category counters diverged"
        )
        assert p == a, f"exact contract: summary {p!r} != {a!r}"
        return errors
    if contract == CONTRACT_FLOAT_ASSOC:
        assert p.core_seconds == a.core_seconds, (
            f"device scaling must not touch CPU accounting: "
            f"{p.core_seconds!r} != {a.core_seconds!r}"
        )
        assert p.ssd_ios == a.ssd_ios
        for name in ("elapsed_rel_err", "dollars_rel_err"):
            err = errors[name]
            assert isinstance(err, float)
            assert err <= FLOAT_ASSOC_REL_TOL, (
                f"float-assoc contract: {name}={err:.3e} exceeds "
                f"{FLOAT_ASSOC_REL_TOL:.1e}"
            )
        return errors
    if contract == CONTRACT_QUEUEING:
        for name in ("core_seconds_rel_err", "elapsed_rel_err",
                     "ssd_ios_rel_err", "dollars_rel_err"):
            err = errors[name]
            assert isinstance(err, float)
            assert err <= QUEUEING_REL_TOL, (
                f"queueing contract: {name}={err:.3e} exceeds "
                f"{QUEUEING_REL_TOL:.2f}"
            )
        return errors
    raise ValueError(f"unknown contract {contract!r}")


# ---------------------------------------------------------------------------
# the profiler: sweep, rank, validate
# ---------------------------------------------------------------------------

def _scenario_kwargs(component: str, speedup: float) -> Dict[str, object]:
    """run_scenario keyword arguments realizing one what-if."""
    if component == DEVICE_SSD:
        return {"ssd_factor": speedup}
    if component == DEVICE_LOG:
        return {"log_factor": speedup}
    factor = 1.0 / speedup
    return {
        "cpu_factors": {name: factor for name in categories_for(component)},
    }


def run_whatif(
    config: Scenario,
    components: Optional[Sequence[str]] = None,
    speedup: float = 2.0,
    validate: str = "top",
    catalog: Optional[CostCatalog] = None,
) -> dict:
    """The full profiler pass: baseline, per-component predictions
    ranked by $-per-op savings, and validation re-runs.

    ``components`` restricts the sweep (default: everything
    :func:`available_components` finds).  ``validate`` picks which
    predictions get an actual re-run: ``"top"`` (the ranked winner —
    the optimization flywheel's cheap default), ``"all"``, or
    ``"none"``.  Returns a plain-dict result consumed by
    :func:`render_report` / :func:`render_json` and the engine bench.
    """
    if validate not in ("none", "top", "all"):
        raise ValueError(f"validate must be none|top|all, got {validate!r}")
    if not 0.0 < speedup < math.inf:
        raise ValueError(
            f"speedup must be positive and finite, got {speedup}")
    catalog = catalog if catalog is not None else CostCatalog()
    baseline = run_scenario(config, record=True)
    base_summary = summarize(baseline, catalog)
    known = available_components(baseline)
    if components is None:
        chosen = list(known)
    else:
        unknown = sorted(set(components) - set(known))
        if unknown:
            raise ValueError(
                f"unknown component(s) {unknown} for this scenario; "
                f"available: {known}"
            )
        chosen = list(components)

    entries = []
    for component in chosen:
        predicted_view = predict(baseline, component, speedup)
        predicted = summarize(predicted_view, catalog)
        savings = base_summary.dollars_per_op - predicted.dollars_per_op
        entries.append({
            "component": component,
            "contract": contract_for(config, component),
            "predicted": predicted,
            "_view": predicted_view,
            "savings_dollars_per_op": savings,
        })
    entries.sort(key=lambda e: (-e["savings_dollars_per_op"],
                                e["component"]))

    to_validate: List[dict] = []
    if validate == "all":
        to_validate = list(entries)
    elif validate == "top" and entries:
        to_validate = [entries[0]]

    validations = []
    for entry in to_validate:
        component = entry["component"]
        actual_view = run_scenario(
            config, **_scenario_kwargs(component, speedup))
        agreement = check_agreement(
            entry["_view"], actual_view, entry["contract"], catalog)
        validations.append({
            "component": component,
            "speedup": speedup,
            "contract": entry["contract"],
            "predicted": entry["predicted"].as_dict(),
            "actual": summarize(actual_view, catalog).as_dict(),
            "agreement": agreement,
        })

    ranked = []
    for rank, entry in enumerate(entries, start=1):
        predicted = entry["predicted"]
        base_total = base_summary.dollars_per_op
        ranked.append({
            "rank": rank,
            "component": entry["component"],
            "contract": entry["contract"],
            "predicted": predicted.as_dict(),
            "savings_dollars_per_op": entry["savings_dollars_per_op"],
            "savings_pct": (
                100.0 * entry["savings_dollars_per_op"] / base_total
                if base_total else 0.0),
            "ops_per_sec_gain_pct": (
                100.0 * (predicted.ops_per_sec
                         / base_summary.ops_per_sec - 1.0)
                if base_summary.ops_per_sec else 0.0),
        })

    return {
        "schema": 1,
        "config": {
            "seed": config.seed,
            "mix": f"ycsb-{config.mix}",
            "records": config.record_count,
            "ops": config.op_count,
            "shards": max(config.shards, 1),
            "batch_size": config.batch_size,
            "cores": config.cores,
            "commit": config.commit,
            "log_topology": config.log_topology,
        },
        "speedup": speedup,
        "baseline": base_summary.as_dict(),
        "components": ranked,
        "validated": validations,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(result: dict) -> str:
    """Deterministic JSON: same seed and config, byte-identical text."""
    return json.dumps(result, sort_keys=True,
                      separators=(",", ":")) + "\n"


def render_report(result: dict) -> str:
    """Plain-text ranked bottleneck table in Eq. (4)-(5) terms."""
    config = result["config"]
    base = result["baseline"]
    lines = [
        "what-if causal profile "
        f"({config['mix']}, {config['shards']} shard"
        f"{'s' if config['shards'] != 1 else ''}, "
        f"{config['commit']} commit, {config['log_topology']} log, "
        f"{config['ops']} ops, seed {config['seed']}, "
        f"speedup {result['speedup']:g}x)",
        "  Eq. (4)  $MM = Ps*($M + $Fl) + N*$P/ROPS",
        "  Eq. (5)  $SS = Ps*$Fl + N*($I/IOPS + R*$P/ROPS)",
        f"  baseline: {base['ops_per_sec']:,.0f} ops/s, "
        f"{base['core_us_per_op']:.4f} core us/op, "
        f"{base['dollars_per_op']:.3e} $/op "
        f"(exec {base['exec_dollars_per_op']:.3e} + "
        f"io {base['io_dollars_per_op']:.3e} + "
        f"dram rent {base['dram_dollars_per_op']:.3e})",
        "",
        f"  {'rank':<5s}{'component':<16s}{'pred $/op':>12s}"
        f"{'saved $/op':>12s}{'saved %':>9s}{'ops/s gain':>11s}"
        f"{'contract':>13s}",
    ]
    for entry in result["components"]:
        predicted = entry["predicted"]
        lines.append(
            f"  {entry['rank']:<5d}{entry['component']:<16s}"
            f"{predicted['dollars_per_op']:>12.3e}"
            f"{entry['savings_dollars_per_op']:>12.3e}"
            f"{entry['savings_pct']:>8.2f}%"
            f"{entry['ops_per_sec_gain_pct']:>10.2f}%"
            f"{entry['contract']:>13s}"
        )
    for validation in result["validated"]:
        agreement = validation["agreement"]
        lines.append("")
        lines.append(
            f"  validated {validation['component']} @"
            f"{validation['speedup']:g}x ({validation['contract']}): "
            f"predicted {validation['predicted']['dollars_per_op']:.3e} "
            f"$/op vs actual "
            f"{validation['actual']['dollars_per_op']:.3e} $/op "
            f"(rel err {agreement['dollars_rel_err']:.3e}, elapsed rel "
            f"err {agreement['elapsed_rel_err']:.3e})"
        )
    if not result["validated"]:
        lines.append("")
        lines.append("  (no validation re-runs requested)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def parse_speedup(spec: str) -> Tuple[str, float]:
    """Parse ``component:FACTOR`` / ``component:FACTORx`` CLI specs."""
    component, sep, factor_text = spec.partition(":")
    if not sep or not component:
        raise ValueError(
            f"speedup spec {spec!r} is not of the form component:FACTOR"
        )
    text = factor_text.rstrip("xX")
    try:
        factor = float(text)
    except ValueError:
        raise ValueError(f"bad speedup factor {factor_text!r} in {spec!r}")
    if not 0.0 < factor < math.inf:
        raise ValueError(
            f"speedup must be positive and finite, got {factor}")
    return component, factor


def _smoke() -> int:
    """Tiny CI run exercising every contract class end to end."""
    sync = Scenario(seed=7, mix="a", record_count=64, op_count=200)
    result = run_whatif(sync, speedup=2.0, validate="all")
    assert result["components"], "sweep found no components"
    contracts = {v["contract"] for v in result["validated"]}
    assert CONTRACT_EXACT in contracts
    assert CONTRACT_FLOAT_ASSOC in contracts

    # Scaling by 1.0x is a bit-for-bit no-op, predicted and actual.
    baseline = run_scenario(sync, record=True)
    base = summarize(baseline)
    assert summarize(predict(baseline, "bwtree", 1.0)) == base
    noop = run_scenario(sync, **_scenario_kwargs("bwtree", 1.0))
    assert summarize(noop) == base, "1.0x scaling changed the run"

    # The nonlinear regime: a pipelined fleet over one shared log drive
    # with an epoch window small enough that speeding the Bw-tree up
    # shifts epoch counts — prediction and validation genuinely differ,
    # and must still agree within the documented tolerance.
    shared = Scenario(seed=7, mix="a", record_count=128, op_count=400,
                      shards=2, log_topology="shared",
                      tc_config=replace(ASYNC_COMMIT,
                                        commit_interval_us=0.5))
    shared_result = run_whatif(shared, components=["bwtree", DEVICE_LOG],
                               speedup=2.0, validate="all")
    assert all(v["contract"] == CONTRACT_QUEUEING
               for v in shared_result["validated"])
    bwtree = next(v for v in shared_result["validated"]
                  if v["component"] == "bwtree")
    err = bwtree["agreement"]["elapsed_rel_err"]
    assert 0.0 < err <= QUEUEING_REL_TOL, (
        f"expected measurable-but-bounded nonlinearity, got {err!r}"
    )

    # Determinism: an identical pass renders byte-identically.
    again = run_whatif(sync, speedup=2.0, validate="all")
    assert render_json(result) == render_json(again)
    assert render_report(result) == render_report(again)
    print("whatif smoke: OK (exact + float-assoc + queueing contracts, "
          "1.0x no-op, deterministic render)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro whatif",
        description=("Virtual causal profiler: predict and validate the "
                     "fleet-level effect of speeding one component up; "
                     "see docs/PROFILING.md."),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mix", choices=sorted(MIX_BUILDERS), default="a")
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--ops", type=int, default=1200)
    parser.add_argument("--shards", type=int, default=1,
                        help="1 = one bare engine (default); N > 1 = an "
                             "N-shard fleet behind the router")
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--commit", choices=("sync", "async"),
                        default="sync")
    parser.add_argument("--log-topology", choices=LOG_TOPOLOGIES,
                        default="colocated")
    parser.add_argument("--speedup", action="append", default=None,
                        metavar="COMPONENT:FACTORx",
                        help="what-if one component (repeatable, always "
                             "validated); e.g. bwtree:2x")
    parser.add_argument("--sweep", action="store_true",
                        help="predict every component; rank by $-per-op "
                             "savings")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="speedup factor for --sweep (default 2.0)")
    parser.add_argument("--validate", choices=("none", "top", "all"),
                        default="top",
                        help="which --sweep predictions get an actual "
                             "re-run (default: the top-ranked one)")
    parser.add_argument("--format", choices=("report", "json"),
                        default="report")
    parser.add_argument("--out", default="-",
                        help="output path ('-' = stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-verifying CI run")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    if bool(args.speedup) == args.sweep:
        parser.error("pick exactly one of --speedup COMPONENT:FACTORx "
                     "or --sweep")

    try:
        config = Scenario(
            seed=args.seed, mix=args.mix, record_count=args.records,
            op_count=args.ops, shards=args.shards if args.shards > 1 else 0,
            batch_size=args.batch_size, cores=args.cores,
            tc_config=(ASYNC_COMMIT if args.commit == "async"
                       else SYNC_COMMIT),
            log_topology=args.log_topology,
        )
        if args.sweep:
            result = run_whatif(config, speedup=args.factor,
                                validate=args.validate)
        else:
            specs = [parse_speedup(spec) for spec in args.speedup]
            factors = {factor for _, factor in specs}
            if len(factors) != 1:
                parser.error("all --speedup specs must share one factor "
                             "(run separate invocations to mix factors)")
            result = run_whatif(
                config,
                components=[component for component, _ in specs],
                speedup=factors.pop(),
                validate="all",
            )
    except ValueError as exc:
        parser.error(str(exc))

    output = (render_json(result) if args.format == "json"
              else render_report(result))
    if args.out == "-":
        sys.stdout.write(output)
    else:
        Path(args.out).write_text(output)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
