"""The fused billing sequence against the call chain it replaced.

``ReferenceCpuModel`` keeps the retired path verbatim — ``charge`` ->
``charge_us`` -> ``CounterSet.add`` -> ``advance_us`` -> ``advance``, one
``getattr`` on the cost table and one f-string per charge — so the two
can be driven side by side and compared with ``==``, never ``approx``:
a host-side optimization must leave every virtual number bit-identical.
A ``charge`` (which bills a memoised one-step plan) and a billed charge
plan — one step or several, on the model that built it or on another —
are held to the reference charging their steps one call each, with and
without a sink and what-if scaling.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import CostTable, CpuModel, VirtualClock
from repro.observability.whatif import ChargeRecorder
from repro.scenarios import Scenario


class ReferenceCpuModel(CpuModel):
    """``CpuModel`` with the pre-fusion ``charge`` / ``charge_us``."""

    def charge_us(self, microseconds, category="other"):
        if microseconds < 0.0:
            raise ValueError(f"cannot charge negative work: {microseconds}")
        scale = self._scale
        if scale is not None:
            factor = scale.get(category)
            if factor is not None:
                microseconds = microseconds * factor
        self.busy_us += microseconds
        self.counters.add(f"cpu_us.{category}", microseconds)
        sink = self.sink
        if sink is not None:
            sink.on_charge(category, microseconds)
        self.advance_us(microseconds / self.cores)

    def charge(self, primitive, count=1.0, category=None):
        unit = getattr(self.costs, primitive)
        amount = unit * count
        self.charge_us(amount, category if category is not None else primitive)
        return amount

    def advance_us(self, microseconds):
        """The retired ``VirtualClock.advance_us``."""
        return self.clock.advance(microseconds * 1e-6)


PRIMITIVES = st.sampled_from(sorted(CostTable.__dataclass_fields__))
CATEGORIES = st.sampled_from(["tc", "bwtree", "mvcc", "other"])
COUNTS = st.one_of(
    st.integers(0, 8192),
    st.floats(0.0, 1e6),
    st.floats(-4.0, -1e-9),          # rejected by both, nothing charged
)
FACTORS = st.floats(1e-3, 1e3)
TAIL_COUNTS = st.one_of(COUNTS, st.just(float("nan")))
#: A plan of up to five primitives plus an optional counted tail, one
#: step at least: ``(primitives, tail primitive or None, tail count)``.
#: One-step plans — a fixed primitive, or a tail alone — are drawn on
#: their own, since :meth:`CpuModel.bill` has a head for them.
PLANS = st.one_of(
    st.tuples(st.lists(PRIMITIVES, min_size=1, max_size=1), st.none(),
              st.just(1.0)),
    st.tuples(st.just([]), PRIMITIVES, TAIL_COUNTS),
    st.tuples(st.lists(PRIMITIVES, min_size=2, max_size=5), st.none(),
              st.just(1.0)),
    st.tuples(st.lists(PRIMITIVES, min_size=1, max_size=5), PRIMITIVES,
              TAIL_COUNTS),
)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("bill"), PLANS, CATEGORIES),
    st.tuples(st.just("bill"), PLANS, CATEGORIES),
    st.tuples(st.just("bill_foreign"), PLANS, CATEGORIES),
    st.tuples(st.just("charge"), PRIMITIVES, COUNTS,
              st.one_of(st.none(), CATEGORIES)),
    st.tuples(st.just("charge"), PRIMITIVES, COUNTS,
              st.one_of(st.none(), CATEGORIES)),
    st.tuples(st.just("charge"), st.just("no_such_primitive"), COUNTS,
              CATEGORIES),
    st.tuples(st.just("scale"), st.one_of(
        st.none(), st.dictionaries(CATEGORIES, FACTORS, max_size=3))),
    st.tuples(st.just("sink"), st.booleans()),
    st.tuples(st.just("reset")),
), max_size=40)


def reference_bill(cpu, primitives, then, count, category):
    """A plan as the charges it stands for, one call each; a bad tail
    count is refused before any of them."""
    if then is not None:
        if count < 0.0 or not getattr(cpu.costs, then) * count >= 0.0:
            raise ValueError(f"charged work must be >= 0, got {count}")
    for primitive in primitives:
        cpu.charge(primitive, 1.0, category)
    if then is not None:
        cpu.charge(then, count, category)


#: The model a ``bill_foreign`` step builds its plan on: other prices
#: and another core count, so a plan that billed its own amounts on the
#: model it is billed on would not match the reference.
FOREIGN = CpuModel(3, costs=CostTable().scaled(1.5))


def apply(cpu, recorder, step):
    """Run one step; returns what the caller saw (value or exception).
    A ``bill`` step bills a plan on the fused model and runs
    :func:`reference_bill` on the reference; a ``bill_foreign`` step
    bills a plan built on :data:`FOREIGN`, which must charge the fused
    model's own prices step by step."""
    kind = step[0]
    try:
        if kind == "bill" or kind == "bill_foreign":
            __, (primitives, then, count), category = step
            if isinstance(cpu, ReferenceCpuModel):
                return reference_bill(cpu, primitives, then, count, category)
            owner = cpu if kind == "bill" else FOREIGN
            plan = owner.plan(category, *primitives, then=then)
            return cpu.bill(plan, count)
        if kind == "charge":
            __, primitive, count, category = step
            return cpu.charge(primitive, count, category)
        if kind == "scale":
            return cpu.scale_costs(step[1])
        if kind == "sink":
            cpu.sink = recorder if step[1] else None
            return None
        return cpu.reset()
    except (ValueError, AttributeError) as error:
        return type(error)


def accounts(cpu, recorder):
    return (cpu.busy_us, cpu.counters.snapshot(), cpu.clock.now,
            recorder.events)


@settings(max_examples=300, deadline=None)
@given(cores=st.sampled_from([1, 4, 8]), steps=STEPS)
def test_fused_charge_is_bit_identical_to_the_reference_chain(cores, steps):
    fused = CpuModel(cores, clock=VirtualClock())
    reference = ReferenceCpuModel(cores, clock=VirtualClock())
    fused_events, reference_events = ChargeRecorder(), ChargeRecorder()
    for step in steps:
        assert (apply(fused, fused_events, step)
                == apply(reference, reference_events, step)), step
        assert (accounts(fused, fused_events)
                == accounts(reference, reference_events)), step


def record_engine_run(scenario):
    """Drive ``scenario`` with a recorder on every machine."""
    run = scenario.prepare()
    recorders = []
    for machine in run.machines:
        machine.cpu.sink = recorder = ChargeRecorder()
        recorders.append(recorder)
    run.drive()
    return (
        [type(machine.cpu) for machine in run.machines],
        [recorder.events for recorder in recorders],
        [(machine.cpu.busy_us, machine.cpu.counters.snapshot(),
          machine.clock.now) for machine in run.machines],
        run.result(),
    )


def test_engine_charge_stream_is_identical_under_both_models():
    """Batched YCSB-A through a 2-shard fleet with a checkpoint: every
    charge, in order, with the same float."""
    scenario = Scenario(seed=42, mix="a", record_count=300, op_count=1792,
                        shards=2, batch_size=64, checkpoint=True)
    kinds, events, totals, result = record_engine_run(scenario)
    with mock.patch("repro.hardware.machine.CpuModel", ReferenceCpuModel):
        (ref_kinds, ref_events, ref_totals,
         ref_result) = record_engine_run(scenario)
    assert set(kinds) == {CpuModel} and set(ref_kinds) == {ReferenceCpuModel}
    assert sum(len(stream) for stream in events) > 5_000
    assert events == ref_events
    assert totals == ref_totals
    assert result == ref_result
