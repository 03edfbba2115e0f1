"""Virtual-time trace spans with exact cost attribution.

A :class:`Tracer` attaches to one simulated :class:`~repro.hardware.machine.
Machine`.  Components open a span around their hot-path methods
(``engine.get`` → ``tc.read`` → ``bwtree.get`` → ``page_cache.fetch`` →
``log_store.read``); each span brackets the CPU model's running
``busy_us`` scalar plus the SSD's access/service scalars and the DRAM
footprint, so one operation renders as a cost-attribution tree.

Every span site has the same guarded form, so an untraced machine pays
one ``is None`` check per site and enters no frame for the span::

    tracer = machine.tracer
    if tracer is not None:
        tracer.open_span("tc.read", "tc")
    try:
        ...
    finally:
        if tracer is not None:
            tracer.close_span()

The ``finally`` closes the span on a raise too, so opens and closes
always pair LIFO and :meth:`Tracer.close_span` needs no argument.

The tracer builds the :class:`Span` tree live and installs itself as the
CPU model's :class:`~repro.hardware.cpu.ChargeSink`, bucketing every
individual charge by category into the innermost open span, so the
export carries per-span category splits.

Everything is stamped in *virtual* time from ``machine.clock`` — no wall
clocks anywhere, so the same seed and config produce a byte-identical
exported trace.

Exactness contract (pinned by tests):

* :attr:`Tracer.total_us` is the difference of the CPU model's ``busy_us``
  against its value at attach time.  Attached right after
  ``reset_accounting()`` the baseline is exactly ``0.0``, subtraction is
  the identity, and :meth:`Tracer.total_core_seconds` is *bit-identical*
  to ``engine.stats()["core_seconds"]`` (both are ``busy_us * 1e-6``).
* :meth:`Tracer.totals` reads the machine's own ``cpu_us.<category>``
  counters (minus their attach-time baseline), so per-category totals are
  bit-identical to the accounting ``stats()`` is built from.
* SSD I/O and DRAM deltas are integer/scalar snapshot differences — exact.
* Per-span subtree CPU windows partition the charge stream: re-summing
  every span's self-CPU with :func:`math.fsum` reproduces the span-window
  totals up to float association order (asserted at a 1e-9 relative
  tolerance in tests), and the per-category buckets re-sum to the
  counters the same way.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # deliberate: no runtime import of hardware needed
    from ..hardware.machine import Machine

#: Charge category -> reporting component.  Categories not listed report
#: under their own name.  Kept here (not in the CLI) so exporters, bench
#: and docs agree on one mapping.
COMPONENT_OF_CATEGORY: Dict[str, str] = {
    "bwtree": "bwtree",
    "cache": "page_cache",
    "tc": "tc",
    "tc_mvcc": "tc",
    "tc_log": "recovery_log",
    "tc_read_cache": "read_cache",
    "tc_record_cache": "record_cache",
    "log_store": "log_store",
    "io_path": "io_path",
    "io_retry": "io_path",
    "router": "router",
    "tier_cache": "tier_cache",
    "commit_pipeline": "commit_pipeline",
    "compression": "compression",
    "lsm": "lsm",
    "lsm_block_cache": "lsm",
    "masstree": "masstree",
}

#: Span names emitted by the instrumented hot path (docs/ARCHITECTURE.md
#: references these; tests pin that traced runs only emit names from this
#: set so the docs cannot drift silently).
SPAN_NAMES = frozenset({
    "engine.get", "engine.put", "engine.delete",
    "engine.apply_batch", "engine.checkpoint", "engine.collect_garbage",
    "tc.read", "tc.commit", "tc.commit_batch",
    "record_cache.lookup", "record_cache.append", "record_cache.gc",
    "recovery_log.flush",
    "commit_pipeline.epoch_flush", "commit_pipeline.commit_wait",
    "bwtree.get", "bwtree.upsert", "bwtree.delete", "bwtree.blind_batch",
    "page_cache.fetch",
    "tier_cache.demote", "tier_cache.promote",
    "log_store.read", "log_store.flush",
    "shard.batch",
})


class Span:
    """One traced region: virtual-time window plus the costs it billed.

    ``subtree_cpu_us``, ``ssd_ios``, ``service_us`` and
    ``dram_delta_bytes`` are subtree-wide snapshot differences (this span
    plus every descendant); :meth:`self_cpu_us` / :meth:`self_ssd_ios`
    subtract the children.  ``cpu_us`` holds per-category charges for the
    span's *own* work.
    """

    __slots__ = (
        "name", "component", "children",
        "begin_s", "end_s", "subtree_cpu_us", "cpu_us",
        "ssd_ios", "service_us", "dram_delta_bytes",
    )

    def __init__(self, name: str, component: str) -> None:
        self.name = name
        self.component = component
        self.children: List["Span"] = []
        self.begin_s = 0.0
        self.end_s = 0.0
        self.subtree_cpu_us = 0.0
        self.cpu_us: Dict[str, float] = {}
        self.ssd_ios = 0
        self.service_us = 0.0
        self.dram_delta_bytes = 0

    # -- derived views ---------------------------------------------------

    def self_cpu_us(self) -> float:
        """This span's own charged core-microseconds (children excluded)."""
        return self.subtree_cpu_us - math.fsum(
            child.subtree_cpu_us for child in self.children)

    def self_ssd_ios(self) -> int:
        """I/Os billed here but not inside any child span."""
        return self.ssd_ios - sum(c.ssd_ios for c in self.children)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (virtual microseconds, recursive children)."""
        return {
            "name": self.name,
            "component": self.component,
            "begin_us": self.begin_s * 1e6,
            "end_us": self.end_s * 1e6,
            "self_cpu_us": self.self_cpu_us(),
            "subtree_cpu_us": self.subtree_cpu_us,
            "cpu_us": dict(sorted(self.cpu_us.items())),
            "ssd_ios": self.ssd_ios,
            "service_us": self.service_us,
            "dram_delta_bytes": self.dram_delta_bytes,
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Span recording + scalar snapshots for one machine.

    Install with :meth:`~repro.hardware.machine.Machine.attach_tracer`,
    typically immediately after ``reset_accounting()`` so the tracer's
    totals reconcile bit-for-bit with the machine's accounting.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        #: Root spans in open order; each holds its children.
        self.roots: List[Span] = []
        #: Charges billed while no span was open (e.g. router hashing
        #: before a shard batch span), by category.
        self.unattributed: Dict[str, float] = {}
        # Open spans, innermost last, each with its start snapshot:
        # (span, busy us, ssd ios, ssd service us, dram bytes).
        self._stack: List[Tuple[Span, float, int, float, int]] = []
        # Cached model refs for open_span / close_span: each snapshot is
        # a handful of attribute loads, no property calls, no histogram
        # sums.
        self._clock = machine.clock
        self._cpu = machine.cpu
        self._ssd = machine.ssd
        self._dram = machine.dram
        # Attach-time baselines.  After reset_accounting() these are all
        # exactly zero, which makes every "now - baseline" below the
        # bitwise identity — the reconciliation contract.
        self._busy_attach = machine.cpu.busy_us
        self._ios_attach = machine.ssd.total_ios
        self._counters_attach = {
            name: value
            for name, value in machine.cpu.counters.snapshot().items()
            if name.startswith("cpu_us.")
        }

    # -- charge sink (ChargeSink protocol) --------------------------------

    def on_charge(self, category: str, microseconds: float) -> None:
        """Bucket one CPU charge into the innermost open span."""
        stack = self._stack
        bucket = stack[-1][0].cpu_us if stack else self.unattributed
        bucket[category] = bucket.get(category, 0.0) + microseconds

    # -- span recording ---------------------------------------------------

    def open_span(self, name: str, component: str) -> None:
        """Open a span nested in the innermost open one."""
        span = Span(name, component)
        span.begin_s = self._clock.now
        stack = self._stack
        if stack:
            stack[-1][0].children.append(span)
        else:
            self.roots.append(span)
        ssd = self._ssd
        stack.append((span, self._cpu.busy_us, ssd.total_ios,
                      ssd.service_us_total, self._dram.current_bytes))

    def close_span(self) -> None:
        """Close the innermost open span (spans close LIFO, so the stack
        knows which one)."""
        stack = self._stack
        assert stack, "span stack corruption: close_span with no open span"
        span, busy0, ios0, service0, dram0 = stack.pop()
        ssd = self._ssd
        span.end_s = self._clock.now
        span.subtree_cpu_us = self._cpu.busy_us - busy0
        span.ssd_ios = ssd.total_ios - ios0
        span.service_us = ssd.service_us_total - service0
        span.dram_delta_bytes = self._dram.current_bytes - dram0

    # -- reconciliation views ---------------------------------------------

    @property
    def total_us(self) -> float:
        """Core-microseconds charged since attach (scalar difference)."""
        return self._cpu.busy_us - self._busy_attach

    def total_core_seconds(self) -> float:
        """Traced core-seconds; bit-equal to ``stats()['core_seconds']``
        when the tracer was attached right after ``reset_accounting()``."""
        return self.total_us * 1e-6

    def traced_ssd_ios(self) -> int:
        """Device I/Os since attach (exact integer difference)."""
        return self._ssd.total_ios - self._ios_attach

    def totals(self) -> Dict[str, float]:
        """Charged us per category, from the machine's own counters.

        Attached right after ``reset_accounting()`` the baselines are
        absent/zero, so the values are bit-identical to the
        ``cpu_us.<category>`` counters ``stats()`` aggregates.
        """
        baseline = self._counters_attach
        out: Dict[str, float] = {}
        for name, value in self._cpu.counters.snapshot().items():
            if not name.startswith("cpu_us."):
                continue
            delta = value - baseline.get(name, 0.0)
            if delta != 0.0:
                out[name[len("cpu_us."):]] = delta
        return out

    def span_cpu_us(self) -> float:
        """fsum of every span's self-CPU (root-subtree partition).

        Equals the fsum of the root spans' subtree windows up to float
        association order; nested windows partition their parent exactly.
        """
        total = 0.0

        def visit(span: Span) -> float:
            acc = span.self_cpu_us()
            for child in span.children:
                acc += visit(child)
            return acc

        for root in self.roots:
            total += visit(root)
        return total

    def root_cpu_us(self) -> float:
        """fsum of the root spans' subtree CPU windows."""
        return math.fsum(root.subtree_cpu_us for root in self.roots)

    def unattributed_us(self) -> float:
        """Charged us not covered by any root span window (e.g. router
        hashing outside ``shard.batch``); ``total_us`` minus root windows."""
        return self.total_us - self.root_cpu_us()

    def cpu_us_by_component(self) -> Dict[str, float]:
        """Traced core-microseconds grouped by reporting component."""
        grouped: Dict[str, float] = {}
        for category, us in self.totals().items():
            component = COMPONENT_OF_CATEGORY.get(category, category)
            grouped[component] = grouped.get(component, 0.0) + us
        return grouped

    def ssd_ios_by_component(self) -> Dict[str, int]:
        """Self-I/Os of every span grouped by the span's component."""
        grouped: Dict[str, int] = {}

        def visit(span: Span) -> None:
            own = span.self_ssd_ios()
            if own:
                grouped[span.component] = grouped.get(span.component, 0) + own
            for child in span.children:
                visit(child)

        for root in self.roots:
            visit(root)
        unrooted = self.traced_ssd_ios() - sum(
            root.ssd_ios for root in self.roots)
        if unrooted:
            grouped["unattributed"] = grouped.get("unattributed", 0) + unrooted
        return grouped


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def export_json(tracers: List[Tracer], config: Dict[str, object],
                max_roots: Optional[int] = None) -> str:
    """Deterministic JSON export: same seed + config ⇒ byte-identical.

    ``tracers`` carries one tracer per shard (a single engine is a
    one-entry list).  ``max_roots`` caps exported root spans per shard
    (totals always cover the full run; the cap is recorded, never
    silent).
    """
    shards = []
    for shard_id, tracer in enumerate(tracers):
        roots = tracer.roots
        exported = roots if max_roots is None else roots[:max_roots]
        shards.append({
            "shard": shard_id,
            "total_us": tracer.total_us,
            "totals_by_category": dict(sorted(tracer.totals().items())),
            "unattributed_us": tracer.unattributed_us(),
            "unattributed_by_category": dict(
                sorted(tracer.unattributed.items())),
            "ssd_ios": tracer.traced_ssd_ios(),
            "cpu_us_by_component": dict(
                sorted(tracer.cpu_us_by_component().items())),
            "ssd_ios_by_component": dict(
                sorted(tracer.ssd_ios_by_component().items())),
            "roots_total": len(roots),
            "roots_exported": len(exported),
            "spans": [span.to_dict() for span in exported],
        })
    doc = {"schema": 1, "kind": "repro-trace", "config": config,
           "shards": shards}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
