"""Calibrated CPU cost model.

The paper measures *execution time per operation on one core* — not latency —
and builds its whole analysis on that quantity (Section 2.1).  We reproduce it
by charging every primitive action a store performs (hash probe, binary-search
step, delta-chain hop, I/O submission, context switch, ...) a calibrated
number of core-microseconds.  The operation *counts* come from the real data
structures executing real workloads; only the per-primitive prices are
constants.

Calibration targets (DESIGN.md Section 5):

* a fully cached Bw-tree read sums to ~1.0 us of core time, matching the
  paper's 1e6 ops/sec/core (ROPS = 4e6 on 4 cores);
* a secondary-storage (SS) read sums to ~5.8 us with the user-level I/O path
  and ~9 us with the kernel path, matching the paper's measured R;
* a MassTree read sums to ~1/2.6 us, matching the paper's Px ~ 2.6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Protocol, Tuple

from ..frozen import check_bounds
from .clock import VirtualClock
from .metrics import CounterSet


class ChargeSink(Protocol):
    """Observer of individual CPU charges (e.g. a trace span tracer).

    ``on_charge`` sees every charge in billing order with the exact
    amount added to ``busy_us``, so a sink can mirror the CPU model's
    accounting bit-for-bit (the reconciliation contract of
    :mod:`repro.observability.spans`).
    """

    def on_charge(self, category: str, microseconds: float) -> None:
        ...


@dataclass(frozen=True)
class CostTable:
    """Core-microseconds charged per primitive action.

    All values are in microseconds of a single core's execution time.
    ``*_per_byte`` entries are multiplied by the number of bytes handled.
    """

    # --- generic per-operation overheads -------------------------------
    op_dispatch: float = 0.52          # request decode, epoch enter/exit
    epoch_protect: float = 0.08        # latch-free epoch protection
    hash_probe: float = 0.05           # one hash-table probe
    pointer_chase: float = 0.02        # follow one in-memory pointer
    key_compare: float = 0.012         # one variable-length key comparison
    int_compare: float = 0.008         # one fixed 8-byte slice comparison
    install_cas: float = 0.04          # one compare-and-swap install
    copy_per_byte: float = 0.0001      # memcpy of record/page bytes

    # --- Bw-tree / LLAMA specifics --------------------------------------
    mapping_table_lookup: float = 0.05  # logical page id -> address
    delta_chain_hop: float = 0.06       # traverse one delta record
    page_binary_search_step: float = 0.02
    consolidate_per_byte: float = 0.0006
    evict_bookkeeping: float = 0.30     # pick victim, unhook, free
    page_install: float = 0.50          # wire a fetched page into the cache

    # --- MassTree specifics ---------------------------------------------
    masstree_dispatch: float = 0.10     # leaner front end, no indirection
    masstree_layer_descend: float = 0.03
    masstree_version_check: float = 0.04

    # --- LSM specifics ----------------------------------------------------
    bloom_filter_probe: float = 0.04
    memtable_step: float = 0.025
    merge_per_byte: float = 0.0004

    # --- I/O paths (Section 7.1.1) ---------------------------------------
    # User-level (SPDK-style) path: polling, no protection-boundary cross.
    io_submit_user: float = 0.90
    io_complete_user: float = 0.70
    # Kernel path: syscall crossing both ways plus a kernel<->user copy.
    io_submit_kernel: float = 2.20
    io_complete_kernel: float = 1.60
    kernel_copy_per_byte: float = 0.0004
    context_switch: float = 1.00        # park/unpark a worker around an I/O

    # --- compression (Section 7.2) ----------------------------------------
    decompress_per_byte: float = 0.0012

    # --- transaction component -------------------------------------------
    version_visibility_check: float = 0.02
    log_append_per_byte: float = 0.0004
    timestamp_alloc: float = 0.03

    # --- asynchronous commit pipeline ------------------------------------
    commit_enqueue: float = 0.04       # add a commit future to the epoch
    commit_ack: float = 0.20           # process one device ack completion
    commit_resolve: float = 0.03       # resolve one future in LSN order

    # --- latched (non-latch-free) concurrency control ---------------------
    # Deuteronomy 2.0 contrasts latch-free structures (epoch_protect +
    # install_cas above) against conventional latching.  A latched access
    # pays an uncontended acquire/release pair, and mutations additionally
    # pay an expected convoy/contention term (cache-line ping-pong plus the
    # occasional blocked waiter, amortised per acquisition).
    latch_acquire: float = 0.25        # acquire + release one latch pair
    latch_convoy: float = 0.15         # expected contention cost per mutation

    #: Every price above: finite and >= 0.
    BOUNDS = dict.fromkeys(__annotations__, (0.0, math.inf))

    def __post_init__(self) -> None:
        # Prices are resolved once, when a CpuModel or a charge plan is
        # built, so a price that cannot be billed is refused here rather
        # than at its first charge (or never: an infinite one would set
        # busy time and the clock to inf without an error).
        check_bounds(self)

    def scaled(self, factor: float) -> "CostTable":
        """Return a table with every cost multiplied by ``factor``.

        Used for what-if analyses (e.g. a processor 2x faster than the
        paper's server).
        """
        if not 0.0 < factor < math.inf:
            raise ValueError(
                f"scale factor must be positive and finite, got {factor}")
        scaled_values = {
            f.name: getattr(self, f.name) * factor for f in fields(self)
        }
        return CostTable(**scaled_values)

    def with_overrides(self, **overrides: float) -> "CostTable":
        """Return a copy with selected primitive costs replaced."""
        return replace(self, **overrides)


class ChargePlan:
    """A fixed run of same-category charges, priced once by
    :meth:`CpuModel.plan` and billed by :meth:`CpuModel.bill`.

    ``primitives`` are charged once each, in order; ``then``, when set,
    is a final step charged ``count`` times.  A plan of one step — one
    fixed primitive, or a counted tail alone — is how a hot charge is
    billed: the one-step head of :meth:`CpuModel.bill` costs less than
    the two frames of a cold :meth:`CpuModel.charge`.

    The other fields are read only by :meth:`CpuModel.bill`: ``cpu`` is
    the model whose prices the plan holds, ``key`` the category's
    counter key, ``steps`` each step's amount and clock advance (the
    counted step's slot is rewritten by each bill), ``unit`` the counted
    step's price (``None`` without one), and ``solo`` is ``cpu`` for a
    one-step plan (``None`` otherwise).
    """

    __slots__ = ("category", "primitives", "then", "cpu", "key", "steps",
                 "unit", "solo")

    def __init__(self, cpu: "CpuModel", category: str,
                 primitives: Tuple[str, ...], then: Optional[str]) -> None:
        self.category = category
        self.primitives = primitives
        self.then = then
        self.cpu = cpu
        self.key = f"cpu_us.{category}"
        # ``unit * 1.0`` and ``(amount / cores) * 1e-6``, as a charge of
        # one computes them.
        self.steps: List[Tuple[float, float]] = [
            (amount, (amount / cpu.cores) * 1e-6)
            for amount in (getattr(cpu.costs, name) * 1.0
                           for name in primitives)]
        self.unit: Optional[float] = None
        if then is not None:
            self.unit = getattr(cpu.costs, then)
            self.steps.append((0.0, 0.0))
        self.solo: Optional[CpuModel] = cpu if len(self.steps) == 1 else None


class CpuModel:
    """Accounts core-microseconds of charged work across ``cores`` cores.

    Charged work advances the shared virtual clock by ``charge / cores``,
    approximating the steady-state elapsed time of a CPU-bound run in which
    all cores are busy.  This is the quantity the paper's throughput numbers
    are built from.

    Every charge is a billed :class:`ChargePlan`, and the billing sequence
    — reject a negative or NaN count, apply the what-if factor, then add
    each step's float to ``busy_us``, the ``cpu_us.<category>`` counter,
    the sink and the clock — is written in :meth:`bill` alone: once in
    its one-step head, taken by a plain model (no sink, no scaling), and
    once in its loop, which every other bill takes.  :meth:`charge` is a
    memoised one-step plan for cold sites.

    ``busy_us`` is the total core-microseconds charged since the last
    reset: a plain attribute, read without a call; only :meth:`bill` and
    :meth:`reset` write it.
    """

    #: ``cores`` divides every charge on its way to the clock: a NaN
    #: count would set ``clock.now`` to NaN at the first charge.  Every
    #: entry point that takes a core count uses this bound.
    BOUNDS = {"cores": (1, math.inf)}

    def __init__(
        self,
        cores: int,
        costs: CostTable | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        check_bounds(CpuModel, cores=cores)
        self.cores = cores
        self._costs = costs if costs is not None else CostTable()
        self.clock = clock if clock is not None else VirtualClock()
        self.counters = CounterSet()
        # The dict behind ``counters``; a reset clears it in place.
        self._counts = self.counters.counts
        # (primitive, category) -> the one-step plan :meth:`charge` bills.
        self._charges: Dict[Tuple[str, Optional[str]], ChargePlan] = {}
        self.busy_us = 0.0
        # Optional what-if scaling: category -> factor applied to the
        # *final* charge amount (see :meth:`scale_costs`).
        self._scale: Optional[Dict[str, float]] = None
        # Optional per-charge observer (see :attr:`sink`).
        self._sink: ChargeSink | None = None
        # This model while no sink and no scaling are attached, else
        # ``False``: a one-step plan whose ``solo`` ``is`` this takes
        # :meth:`bill`'s head, so the head tests one identity, not three.
        self._plain: object = self

    @property
    def sink(self) -> Optional[ChargeSink]:
        """Optional per-charge observer (a tracer), ``None`` when unset."""
        return self._sink

    @sink.setter
    def sink(self, sink: Optional[ChargeSink]) -> None:
        self._sink = sink
        self._plain = self if sink is None and self._scale is None else False

    @property
    def costs(self) -> CostTable:
        """The unit-price table; read-only because prices are resolved at
        construction (:meth:`scale_costs` varies them at run time)."""
        return self._costs

    def scale_costs(self, factors: Optional[Mapping[str, float]]) -> None:
        """Install per-category what-if charge scaling (``None`` clears).

        Every subsequent charge whose ``category`` appears in
        ``factors`` has its amount multiplied by the factor *before* it
        reaches any accounting — the busy scalar, the per-category
        counters, the :class:`ChargeSink` and the clock advance all see
        the same scaled value, so the bit-exact reconciliation contract
        of :mod:`repro.observability.spans` survives scaling unchanged.

        The factor deliberately applies to the charged amount rather
        than the :class:`CostTable` unit prices: scaling the final
        amount makes an actual scaled run compute ``(unit * count) *
        factor`` — the *same* float expression a causal-profiler
        prediction folds over a recorded charge stream — whereas
        pre-scaling the table would compute ``(unit * factor) * count``,
        which differs in the last ULPs.  Exactness of the what-if
        contract (:mod:`repro.observability.whatif`) rests on this.
        """
        scale = None if factors is None else dict(factors)
        for category, factor in (scale or {}).items():
            if not 0.0 < factor < math.inf:
                raise ValueError(
                    f"scale factor for {category!r} must be positive and "
                    f"finite, got {factor}"
                )
        self._scale = scale
        self._plain = self if scale is None and self._sink is None else False

    @property
    def busy_seconds(self) -> float:
        """Total core-seconds charged since the last reset."""
        return self.busy_us * 1e-6

    def charge(self, primitive: str, count: float = 1.0,
               category: str | None = None) -> float:
        """Charge ``count`` occurrences of a named :class:`CostTable` entry
        to ``category`` (default: the primitive's name).

        Bills a one-step counted plan, built at the first charge of each
        ``(primitive, category)``; a hot site builds its own plan instead
        and saves this frame.  Returns the charged core-microseconds
        (before any what-if scaling) so callers can aggregate
        per-operation costs without re-reading the table.
        """
        plan = self._charges.get((primitive, category))
        if plan is None:
            plan = self._charges[primitive, category] = self.plan(
                primitive if category is None else category, then=primitive)
        self.bill(plan, count)
        return plan.unit * count

    def plan(self, category: str, *primitives: str,
             then: Optional[str] = None) -> ChargePlan:
        """Price a fixed run of ``category`` charges once, for :meth:`bill`.

        Billing the plan charges each of ``primitives`` once, in order,
        then ``then`` ``count`` times when it is set.  Build it when its
        owning component is built; billed on another model, it is
        re-priced there.  It needs at least one step.
        """
        if not primitives and then is None:
            raise ValueError("a plan bills at least one charge")
        return ChargePlan(self, category, primitives, then)

    def bill(self, plan: ChargePlan, count: float = 1.0) -> None:
        """Bill ``plan`` (``count`` is its counted final step's count).

        A negative or NaN ``count`` raises before any step is billed.
        Each step's amount, scaled by the what-if factor of the plan's
        category, is added to ``busy_us``, the category's counter and
        the clock, and handed to the sink, step by step in order.
        """
        if plan.solo is self._plain:
            # One step, on the plain model that built it: no loop.
            unit = plan.unit
            if unit is None:
                amount, advance = plan.steps[0]
            else:
                amount = unit * count
                if count < 0.0 or not amount >= 0.0:
                    raise ValueError(f"charged work must be >= 0, got "
                                     f"{count} x {plan.then}")
                advance = (amount / self.cores) * 1e-6
            self.busy_us += amount
            self._counts[plan.key] += amount
            self.clock.now += advance
            return
        if plan.cpu is not self:
            plan = self.plan(plan.category, *plan.primitives, then=plan.then)
        steps = plan.steps
        unit = plan.unit
        cores = self.cores
        if unit is not None:
            tail = unit * count
            if count < 0.0 or not tail >= 0.0:
                raise ValueError(
                    f"charged work must be >= 0, got {count} x {plan.then}")
            steps[-1] = (tail, (tail / cores) * 1e-6)
        scale = self._scale
        factor = None if scale is None else scale.get(plan.category)
        sink = self._sink
        busy = self.busy_us
        counts = self._counts
        key = plan.key
        total = counts[key]
        clock = self.clock
        now = clock.now
        for amount, advance in steps:
            if factor is not None:
                amount = amount * factor
                advance = (amount / cores) * 1e-6
            busy += amount
            total += amount
            if sink is not None:
                sink.on_charge(plan.category, amount)
            now += advance
        self.busy_us = busy
        counts[key] = total
        clock.now = now

    def elapsed_if_cpu_bound(self) -> float:
        """Seconds the charged work takes when spread across all cores."""
        return self.busy_seconds / self.cores

    def reset(self) -> None:
        """Zero accounting; the shared clock is left untouched."""
        self.busy_us = 0.0
        self.counters.reset()
