"""Cost-attribution observability: virtual-time tracing + metrics.

The paper's argument is an accounting argument — Eqs. (4)-(5) price an
operation by summing core-seconds, I/O device share and storage rent
along its execution path.  This package makes that accounting visible
*per operation* instead of only as end-of-run aggregates:

* :mod:`~repro.observability.spans` — trace spans stamped in virtual
  time (``hardware.clock``; no wall clocks) and annotated with the
  CPU/IoPath/DRAM charges each component bills, forming a
  cost-attribution tree that reconciles exactly with ``engine.stats()``;
* :mod:`~repro.observability.registry` — a counters/gauges/histograms
  registry read off live components, with snapshot/delta APIs and a
  fleet registry folded from the engine's one ``STATS`` table;
* :mod:`~repro.observability.trace_cli` — ``python -m repro trace``:
  replays a seeded workload and exports JSON / Chrome-trace output plus
  the "$ per op by component" report citing Eq. (4)-(5) terms by name;
* :mod:`~repro.observability.whatif` — ``python -m repro whatif``: the
  virtual causal profiler — predicts the fleet-level effect of making
  one component faster by folding the recorded charge stream, then
  validates against an actual scaled re-run (bit-exact where the
  scaling is linear; see docs/PROFILING.md).

See docs/ARCHITECTURE.md for the equation → module → span map.
"""

from .registry import MetricsRegistry, engine_registry, fleet_registry
from .spans import (
    COMPONENT_OF_CATEGORY,
    SPAN_NAMES,
    Span,
    Tracer,
    export_chrome,
    export_json,
)
from .whatif import (
    CONTRACT_EXACT,
    CONTRACT_FLOAT_ASSOC,
    CONTRACT_QUEUEING,
    ChargeRecorder,
    WhatifSummary,
    check_agreement,
    predict,
    run_scenario,
    run_whatif,
    summarize,
)

__all__ = [
    "COMPONENT_OF_CATEGORY",
    "CONTRACT_EXACT",
    "CONTRACT_FLOAT_ASSOC",
    "CONTRACT_QUEUEING",
    "SPAN_NAMES",
    "ChargeRecorder",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "WhatifSummary",
    "check_agreement",
    "engine_registry",
    "export_chrome",
    "export_json",
    "fleet_registry",
    "predict",
    "run_scenario",
    "run_whatif",
    "summarize",
]
