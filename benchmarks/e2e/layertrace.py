"""Host-clock layer tracing from outside the program.

The traced run answers "where does the *host* spend its time while it
simulates an op?" without touching ``src/``: class-level wrappers are
installed on the public functions of each layer (module) for the length
of one run and removed afterwards.  Each wrapper pushes and pops a span
stack stamped with ``perf_counter_ns``, so a layer's **self time** is its
span's duration minus the part of that interval its child spans cover.
Self times therefore partition the traced wall time exactly: summed over
every layer plus the driver (loop time outside any wrapped call) they
reproduce it to the nanosecond.

Aggregates ``(calls, total_ns, self_ns)`` are kept per ``layer.function``
in memory; full span records (span id, parent id, op id, name, start,
end) are kept only for the ops the driver marks with
:meth:`LayerTracer.sample_next`, and written out when the run ends.

Wrapping costs host time (reported as ``trace.overhead_ratio``) and
inflates tiny functions relative to large ones, so end-to-end metrics
always come from untraced runs; this module only apportions.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layers that model hardware.  A device access is credited to the
#: nearest enclosing *software* layer (``<layer>.ssd_ios``), skipping
#: these: ``LogDevice.submit_write`` is the device, not the cause.
HARDWARE_LAYERS = frozenset({"ssd", "log_device", "io_path"})


def wrap_table() -> Dict[str, List[Tuple[type, Tuple[str, ...]]]]:
    """layer -> [(class, public method names)], the layer boundaries.

    Imported lazily so this module can be imported (and its span
    arithmetic tested) without the program on ``sys.path``.
    """
    from repro.bwtree.tree import BwTree
    from repro.deuteronomy.commit_pipeline import CommitPipeline
    from repro.deuteronomy.engine import DeuteronomyEngine
    from repro.deuteronomy.mvcc import VersionStore
    from repro.deuteronomy.read_cache import ReadCache
    from repro.deuteronomy.record_cache import RecordStore
    from repro.deuteronomy.recovery_log import RecoveryLog
    from repro.deuteronomy.tc import TransactionComponent
    from repro.hardware.iopath import IoPathModel
    from repro.hardware.logdevice import LogDevice
    from repro.hardware.ssd import SimulatedSsd
    from repro.sharding.engine import ShardedEngine
    from repro.sharding.router import ShardRouter
    from repro.storage.cache import PageCache, TierCache
    from repro.storage.checkpoint import CheckpointManager
    from repro.storage.gc import GarbageCollector
    from repro.storage.log_store import LogStructuredStore

    return {
        "router": [(ShardRouter, ("scatter", "gather", "shard_for"))],
        "engine": [
            (DeuteronomyEngine, ("get", "put", "apply_batch", "checkpoint",
                                 "collect_garbage")),
            (ShardedEngine, ("get", "put", "apply_batch", "checkpoint",
                             "drain_commits")),
        ],
        "tc": [(TransactionComponent, (
            "begin", "read", "read_batch", "execute_batch", "commit",
            "commit_batch", "run_update", "sync_log"))],
        "mvcc": [(VersionStore, ("add", "visible", "newest_timestamp",
                                 "truncate"))],
        "read_cache": [(ReadCache, ("lookup", "insert", "invalidate"))],
        "record_cache": [(RecordStore, ("lookup", "append_record",
                                        "collect_garbage", "drain_dirty"))],
        "recovery_log": [(RecoveryLog, ("append", "append_batch", "flush",
                                        "seal", "submit_sealed",
                                        "mark_durable"))],
        "commit_pipeline": [(CommitPipeline, ("enqueue_epoch", "maybe_close",
                                              "ack", "force"))],
        "bwtree": [(BwTree, ("get_with_stats", "upsert", "delete",
                             "apply_blind_batch", "checkpoint",
                             "collect_garbage"))],
        "page_cache": [(PageCache, ("touch", "fetch", "evict", "flush_page",
                                    "ensure_capacity"))],
        "tier_cache": [(TierCache, ("demote", "promote"))],
        "log_store": [(LogStructuredStore, ("append", "flush", "read",
                                            "invalidate"))],
        "gc": [(GarbageCollector, ("run_until_utilization",
                                   "clean_segment"))],
        "checkpoint": [(CheckpointManager, ("write_checkpoint",))],
        "io_path": [(IoPathModel, ("charge_round_trip", "charge_submit",
                                   "charge_complete"))],
        "ssd": [(SimulatedSsd, ("read", "write"))],
        "log_device": [(LogDevice, ("submit_write",))],
    }


class LayerTracer:
    """Span stack + per-function aggregates on the host clock."""

    def __init__(self,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: Wrappers pass straight through while this is False, so set-up
        #: runs at close to untraced speed with the wrappers installed.
        self.enabled = False
        # Open frames, innermost last: [child_ns, span_id, layer].
        self._stack: List[list] = []
        #: "layer.function" -> [calls, total_ns, self_ns]
        self.aggregates: Dict[str, List[int]] = {}
        #: software layer -> device accesses made on its behalf
        self.ssd_ios: Dict[str, int] = {}
        #: ns covered by root spans (spans with no enclosing span)
        self.root_ns = 0
        self.spans: List[dict] = []
        self._sampling = False
        self._op_id = -1
        self._next_span_id = 0

    def reset(self) -> None:
        """Forget everything recorded so far (start of the measured phase)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        for aggregate in self.aggregates.values():
            aggregate[0] = aggregate[1] = aggregate[2] = 0
        self.ssd_ios.clear()
        self.root_ns = 0
        self.spans.clear()
        self._sampling = False

    def sample_next(self, op_id: int) -> None:
        """Keep full span records for the next root span and its subtree."""
        self._sampling = True
        self._op_id = op_id

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``layer``."""
        key = f"{layer}.{name}"
        aggregate = self.aggregates.setdefault(key, [0, 0, 0])
        stack = self._stack
        clock = self._clock
        tracer = self
        is_device_access = layer == "ssd"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if is_device_access:
                tracer._credit_device_access()
            frame = [0, -1, layer]
            if tracer._sampling:
                frame[1] = tracer._next_span_id
                tracer._next_span_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_ns += duration
                if frame[1] >= 0:
                    tracer.spans.append({
                        "span": frame[1],
                        "parent": stack[-1][1] if stack else None,
                        "op": tracer._op_id,
                        "name": key,
                        "start_ns": start,
                        "end_ns": start + duration,
                    })
                    if not stack:
                        tracer._sampling = False

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _credit_device_access(self) -> None:
        for frame in reversed(self._stack):
            if frame[2] not in HARDWARE_LAYERS:
                layer = frame[2]
                break
        else:
            layer = "driver"
        self.ssd_ios[layer] = self.ssd_ios.get(layer, 0) + 1

    # --- reporting ------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """layer -> {"calls", "self_s"} summed over its functions."""
        totals: Dict[str, Dict[str, float]] = {}
        for key, (calls, __, self_ns) in self.aggregates.items():
            layer = key.split(".", 1)[0]
            entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_ns * 1e-9
        return totals

    def function_rows(self) -> List[Tuple[str, int, float, float]]:
        """(layer.function, calls, total_s, self_s), largest self first."""
        rows = [
            (key, calls, total_ns * 1e-9, self_ns * 1e-9)
            for key, (calls, total_ns, self_ns) in self.aggregates.items()
            if calls
        ]
        rows.sort(key=lambda row: -row[3])
        return rows

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def installed(tracer: LayerTracer,
              table: Optional[Dict[str, List[Tuple[type, Tuple[str, ...]]]]]
              = None) -> Iterator[LayerTracer]:
    """Install ``tracer``'s wrappers on every function of ``table`` (the
    program's layer boundaries by default); restore the originals on
    exit, whatever happens inside."""
    if table is None:
        table = wrap_table()
    originals: List[Tuple[type, str, object]] = []
    try:
        for layer, targets in table.items():
            for cls, names in targets:
                for name in names:
                    original = cls.__dict__.get(name)
                    if original is None:
                        raise AttributeError(
                            f"{cls.__name__}.{name} is not defined on the "
                            f"class; the {layer} layer boundary moved")
                    if isinstance(original, staticmethod):
                        wrapper: object = staticmethod(
                            tracer.wrap(layer, name, original.__func__))
                    else:
                        wrapper = tracer.wrap(layer, name, original)
                    originals.append((cls, name, original))
                    setattr(cls, name, wrapper)
        yield tracer
    finally:
        tracer.enabled = False
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)
