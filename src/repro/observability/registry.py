"""Component-registered metrics with snapshot/delta and fleet summing.

A :class:`MetricsRegistry` is a *read-side* registry: components (or the
builders below) register named counters, gauges and histograms as zero-
argument callables reading live accounting — nothing on the hot path
changes, so registering metrics costs no simulated work.  Harnesses
(bench, the crash matrix, the trace CLI) take :meth:`snapshot`\\ s and
:meth:`delta`\\ s around measured windows.

Naming convention: ``component.metric`` (``tc.commits``,
``read_cache.resident_bytes``), mirroring the span components of
:mod:`repro.observability.spans`.

The fleet registry is a walk of the one ``STATS`` table in
:mod:`repro.deuteronomy.engine`: one ``fleet.<name>`` metric per row,
combined across shards by the row's kind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping

from ..deuteronomy.engine import STATS, DeuteronomyEngine
from ..hardware.metrics import Histogram

if TYPE_CHECKING:
    from ..sharding.engine import ShardedEngine


class MetricsRegistry:
    """Named counters/gauges/histograms read from live components.

    * **counter** — monotonically non-decreasing over a run; additive
      across shards; ``delta`` is meaningful.
    * **gauge** — instantaneous level or ratio (resident bytes, hit
      rate); reported as-is, never summed blindly.
    * **histogram** — a :class:`~repro.hardware.metrics.Histogram`
      snapshotted as count/mean/percentiles.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Callable[[], float]] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._histograms: Dict[str, Callable[[], Histogram]] = {}

    # -- registration -----------------------------------------------------

    def register_counter(self, name: str,
                         read: Callable[[], float]) -> None:
        self._register(self._counters, "counter", name, read)

    def register_gauge(self, name: str, read: Callable[[], float]) -> None:
        self._register(self._gauges, "gauge", name, read)

    def register_histogram(self, name: str,
                           read: Callable[[], Histogram]) -> None:
        self._register(self._histograms, "histogram", name, read)

    def _register(self, table: Dict[str, Callable], kind: str,
                  name: str, read: Callable) -> None:
        if not name or "." not in name:
            raise ValueError(
                f"{kind} name must be 'component.metric', got {name!r}"
            )
        if name in self._counters or name in self._gauges \
                or name in self._histograms:
            raise ValueError(f"metric {name!r} already registered")
        table[name] = read

    @property
    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges)
            + list(self._histograms)
        )

    # -- snapshot / delta -------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Current value of every counter."""
        return {name: float(read())
                for name, read in sorted(self._counters.items())}

    def snapshot(self) -> Dict[str, object]:
        """Full point-in-time view: counters, gauges, histogram summaries."""
        histograms: Dict[str, Dict[str, float]] = {}
        for name, read in sorted(self._histograms.items()):
            hist = read()
            histograms[name] = {
                "count": float(hist.count),
                "mean": hist.mean,
                "p50": hist.percentile(50),
                "p99": hist.percentile(99),
                "max": hist.maximum,
            }
        return {
            "counters": self.counters(),
            "gauges": {name: float(read())
                       for name, read in sorted(self._gauges.items())},
            "histograms": histograms,
        }

    def delta(self, earlier: Mapping[str, object]) -> Dict[str, object]:
        """Counters minus an earlier :meth:`snapshot`; gauges/histograms
        are reported at their current (end-of-window) values."""
        now = self.snapshot()
        before = earlier.get("counters", {})
        assert isinstance(before, Mapping)
        counters_now = now["counters"]
        assert isinstance(counters_now, dict)
        now["counters"] = {
            name: value - float(before.get(name, 0.0))
            for name, value in counters_now.items()
        }
        return now


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def engine_registry(engine: "DeuteronomyEngine") -> MetricsRegistry:
    """The standard per-engine registry: one entry per component metric.

    Latency, batch size, cache residency and retry counts all live here,
    read straight off the live components (machine histograms, TC
    counters, cache byte accounting, ``RetryStats``).
    """
    registry = MetricsRegistry()
    machine = engine.machine
    tc = engine.tc
    log = tc.log
    read_cache = tc.read_cache
    page_cache = engine.dc.cache
    store = engine.dc.store

    registry.register_counter("machine.operations",
                              lambda: machine.operations)
    registry.register_counter("machine.core_seconds",
                              lambda: machine.cpu.busy_seconds)
    registry.register_counter("machine.ssd_ios",
                              lambda: machine.ssd.total_ios)
    registry.register_histogram("machine.op_latency_us",
                                lambda: machine.op_latencies)

    registry.register_counter("tc.commits",
                              lambda: tc.counters.get("tc.commits"))
    registry.register_counter("tc.aborts",
                              lambda: tc.counters.get("tc.aborts"))
    registry.register_counter("tc.reads",
                              lambda: tc.counters.get("tc.reads"))
    registry.register_counter("tc.dc_reads",
                              lambda: tc.counters.get("tc.dc_reads"))
    registry.register_gauge("tc.hit_rate", tc.tc_hit_rate)
    registry.register_gauge("tc.dram_bytes",
                            lambda: float(tc.dram_footprint_bytes()))
    registry.register_histogram("tc.commit_batch_size",
                                lambda: tc.batch_sizes)

    registry.register_counter("read_cache.hits",
                              lambda: read_cache.hits)
    registry.register_counter("read_cache.misses",
                              lambda: read_cache.misses)
    registry.register_gauge("read_cache.hit_rate", read_cache.hit_rate)
    registry.register_gauge(
        "read_cache.resident_bytes",
        lambda: float(machine.dram.bytes_for("tc_read_cache")))

    registry.register_counter("page_cache.touches",
                              lambda: page_cache.stats.touches)
    registry.register_counter("page_cache.fetches",
                              lambda: page_cache.stats.fetches)
    registry.register_counter("page_cache.evictions",
                              lambda: page_cache.stats.evictions)
    registry.register_gauge("page_cache.hit_rate", page_cache.hit_rate)
    registry.register_gauge("page_cache.resident_bytes",
                            lambda: float(page_cache.resident_bytes))

    registry.register_counter("recovery_log.flushes",
                              lambda: log.flushes)
    registry.register_counter("recovery_log.batch_appends",
                              lambda: log.batch_appends)
    registry.register_counter("recovery_log.retry_attempts",
                              lambda: log.retry_stats.attempts)
    registry.register_counter("recovery_log.retries",
                              lambda: log.retry_stats.retries)
    registry.register_counter("recovery_log.retries_exhausted",
                              lambda: log.retry_stats.exhausted)
    registry.register_gauge("recovery_log.retry_rate",
                            log.retry_stats.retry_rate)
    registry.register_gauge("recovery_log.retained_bytes",
                            lambda: float(log.retained_bytes))

    registry.register_counter("log_store.retry_attempts",
                              lambda: store.retry_stats.attempts)
    registry.register_counter("log_store.retries",
                              lambda: store.retry_stats.retries)
    registry.register_gauge("log_store.retry_rate",
                            store.retry_stats.retry_rate)
    registry.register_gauge("log_store.utilization", store.utilization)
    return registry


def fleet_registry(fleet: "ShardedEngine") -> MetricsRegistry:
    """Fleet-level registry: ``fleet.<name>`` for every ``STATS`` row.

    ``counter`` rows register as counters and ``level`` rows as gauges,
    both summing the row's reader over the live shards.  ``max`` and
    ``ratio`` rows are gauges read off ``ShardedEngine.stats()['fleet']``,
    the one place the elapsed floor and the rates of sums are computed.
    """
    registry = MetricsRegistry()

    def summed(read: Callable) -> Callable[[], float]:
        return lambda: sum(read(shard) for shard in fleet.shards)

    def folded(name: str) -> Callable[[], float]:
        return lambda: fleet.stats()["fleet"][name]

    for name, kind, read in STATS:
        if kind == "counter":
            registry.register_counter(f"fleet.{name}", summed(read))
        elif kind == "level":
            registry.register_gauge(f"fleet.{name}", summed(read))
        else:
            registry.register_gauge(f"fleet.{name}", folded(name))
    registry.register_gauge("fleet.num_shards",
                            lambda: float(fleet.num_shards))
    registry.register_counter(
        "fleet.routed_ops",
        lambda: fleet.counters.get("router.routed_ops"))
    registry.register_counter(
        "fleet.routed_batches",
        lambda: fleet.counters.get("router.batches"))
    return registry
