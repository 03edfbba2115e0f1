"""CPU cost model: charging, clock coupling, calibration invariants."""

from dataclasses import fields

import pytest

from repro.hardware import CostTable, CpuModel, Machine, VirtualClock
from repro.observability.whatif import ChargeRecorder

from ..frames import count_calls


def test_charge_named_primitive_returns_amount():
    cpu = CpuModel(cores=1)
    amount = cpu.charge("op_dispatch")
    assert amount == pytest.approx(cpu.costs.op_dispatch)


def test_charge_with_count_scales():
    cpu = CpuModel(cores=1)
    amount = cpu.charge("delta_chain_hop", 5)
    assert amount == pytest.approx(cpu.costs.delta_chain_hop * 5)


def test_busy_accumulates():
    cpu = CpuModel(cores=1)
    cpu.charge("context_switch", 2.0)     # priced at 1 us
    cpu.charge("context_switch", 3.0)
    assert cpu.busy_us == pytest.approx(5.0)
    assert cpu.busy_seconds == pytest.approx(5e-6)


def test_rejects_negative_charge():
    with pytest.raises(ValueError):
        CpuModel(cores=1).charge("context_switch", -1.0)


def test_rejects_zero_cores():
    with pytest.raises(ValueError):
        CpuModel(cores=0)


def test_clock_advances_scaled_by_cores():
    clock = VirtualClock()
    cpu = CpuModel(cores=4, clock=clock)
    cpu.charge("context_switch", 8.0)
    assert clock.now == pytest.approx(2e-6)


def test_elapsed_if_cpu_bound():
    cpu = CpuModel(cores=2)
    cpu.charge("context_switch", 4e6)   # 4 core-seconds
    assert cpu.elapsed_if_cpu_bound() == pytest.approx(2.0)


def test_categories_tracked():
    cpu = CpuModel(cores=1)
    cpu.charge("hash_probe", 2, category="mvcc")
    assert cpu.counters.get("cpu_us.mvcc") == pytest.approx(
        2 * cpu.costs.hash_probe
    )


def test_reset_preserves_clock():
    clock = VirtualClock()
    cpu = CpuModel(cores=1, clock=clock)
    cpu.charge("context_switch", 10.0)
    cpu.reset()
    assert cpu.busy_us == 0.0
    assert clock.now > 0.0


def test_unknown_primitive_raises():
    with pytest.raises(AttributeError):
        CpuModel(cores=1).charge("not_a_primitive")


def accounts(cpu):
    return cpu.busy_us, cpu.counters.snapshot(), cpu.clock.now


def test_unknown_primitive_names_it_and_charges_nothing():
    cpu = CpuModel(cores=2)
    cpu.sink = sink = ChargeRecorder()
    cpu.charge("hash_probe")
    before = accounts(cpu)
    with pytest.raises(AttributeError, match="not_a_primitive"):
        cpu.charge("not_a_primitive", 3, category="tc")
    assert accounts(cpu) == before
    assert len(sink.events) == 1


@pytest.mark.parametrize("bad", [float("nan"), -1.0, -float("inf")])
def test_nan_and_negative_charges_raise_with_nothing_charged(bad):
    """NaN fails every ``<`` test, so the check must be ``not x >= 0``:
    one NaN would otherwise poison busy_us, the category counter and
    the clock for the rest of the run."""
    cpu = CpuModel(cores=4)
    cpu.sink = sink = ChargeRecorder()
    cpu.charge("context_switch", 1.5, "tc")
    before = accounts(cpu)
    with pytest.raises(ValueError):
        cpu.charge("context_switch", bad, "tc")
    with pytest.raises(ValueError):
        cpu.charge("hash_probe", bad, category="tc")
    assert accounts(cpu) == before
    assert sink.events == [("tc", 1.5)]


def test_a_negative_count_is_refused_at_a_zero_price():
    """A charge bills a one-step plan, whose rule refuses a negative
    count before pricing it: ``0.0 * -1`` is ``-0.0``, which passed the
    amount check alone."""
    cpu = CpuModel(cores=1, costs=CostTable().with_overrides(hash_probe=0.0))
    with pytest.raises(ValueError):
        cpu.charge("hash_probe", -1.0, category="tc")
    assert accounts(cpu) == (0.0, {}, 0.0)
    assert cpu.charge("hash_probe", 3.0, category="tc") == 0.0


def test_nan_scale_factor_is_rejected():
    cpu = CpuModel(cores=1)
    with pytest.raises(ValueError):
        cpu.scale_costs({"tc": float("nan")})
    cpu.charge("context_switch", 2.0, "tc")
    assert cpu.busy_us == 2.0


def test_costs_is_read_only():
    """Unit prices are resolved at construction; a swapped table would
    be silently ignored, so assignment must fail loudly."""
    table = CostTable().with_overrides(hash_probe=7.0)
    cpu = CpuModel(cores=1, costs=table)
    assert cpu.costs is table
    with pytest.raises(AttributeError):
        cpu.costs = CostTable()
    assert cpu.charge("hash_probe") == 7.0


def test_every_cost_table_entry_is_chargeable():
    table = CostTable()
    cpu = CpuModel(cores=1, costs=table)
    for field in fields(table):
        assert cpu.charge(field.name) == getattr(table, field.name)


# ----------------------------------------------------------------------
# complexity guard: frames per charge and per billed plan
# ----------------------------------------------------------------------

def frames(call):
    """The ``repro`` frames ``call`` enters."""
    return count_calls(call).frames


def test_a_cold_charge_bills_its_one_step_plan_in_two_frames():
    """A ``charge`` bills the one-step plan built at the first charge of
    its ``(primitive, category)``: two frames, where it was one while
    ``charge`` spelled out the billing sequence itself.  A hot site
    builds its own plan and bills it in one."""
    cpu = CpuModel(cores=4)
    cpu.charge("hash_probe", 2, category="tc")      # builds the plan
    charge = {"cpu.charge": 1, "cpu.bill": 1}
    assert frames(lambda: cpu.charge("hash_probe", 2, category="tc")) == charge
    # What-if scaling is applied inside the same frames.
    cpu.scale_costs({"tc": 0.5})
    assert frames(lambda: cpu.charge("hash_probe", category="tc")) == charge


def test_a_sink_costs_exactly_one_more_frame():
    cpu = CpuModel(cores=4)
    cpu.sink = ChargeRecorder()
    cpu.charge("hash_probe", category="tc")
    assert frames(lambda: cpu.charge("hash_probe", category="tc")) == {
        "cpu.charge": 1, "cpu.bill": 1, "whatif.on_charge": 1}


def test_a_plan_bills_in_one_frame_without_a_sink_or_scaling():
    cpu = CpuModel(cores=4)
    dispatch = cpu.plan("tc", "timestamp_alloc", "op_dispatch")
    post = cpu.plan("bwtree", "mapping_table_lookup", "install_cas",
                    then="copy_per_byte")
    assert frames(lambda: cpu.bill(dispatch)) == {"cpu.bill": 1}
    assert frames(lambda: cpu.bill(post, 120)) == {"cpu.bill": 1}


def test_a_plan_bills_in_one_frame_with_a_sink_or_scaling():
    """Traced and what-if runs bill through the same frame as a plain
    run: the sink sees every step, and no step is a call of its own."""
    cpu = CpuModel(cores=4)
    post = cpu.plan("bwtree", "mapping_table_lookup", "install_cas",
                    then="copy_per_byte")
    probe = cpu.plan("bwtree", "hash_probe")
    cpu.sink = ChargeRecorder()
    assert frames(lambda: cpu.bill(post, 120)) == {
        "cpu.bill": 1, "whatif.on_charge": 3}
    assert frames(lambda: cpu.bill(probe)) == {
        "cpu.bill": 1, "whatif.on_charge": 1}
    cpu.sink = None
    cpu.scale_costs({"bwtree": 0.5})
    assert frames(lambda: cpu.bill(post, 120)) == {"cpu.bill": 1}
    assert frames(lambda: cpu.bill(probe)) == {"cpu.bill": 1}


def test_a_plan_bills_what_its_charges_bill():
    # Three cores: the clock advance is not an exact power-of-two scaling.
    billed, charged = CpuModel(cores=3), CpuModel(cores=3)
    post = billed.plan("bwtree", "mapping_table_lookup", "install_cas",
                       then="copy_per_byte")
    for size in (0, 57, 4096):
        billed.bill(post, size)
        for primitive in ("mapping_table_lookup", "install_cas"):
            charged.charge(primitive, category="bwtree")
        charged.charge("copy_per_byte", size, category="bwtree")
        assert accounts(billed) == accounts(charged)


def test_a_plan_is_checked_where_it_is_built():
    """A plan of no step is refused; one step, fixed or a counted tail
    alone, is a plan."""
    cpu = CpuModel(cores=1)
    with pytest.raises(ValueError, match="at least one"):
        cpu.plan("tc")
    with pytest.raises(AttributeError, match="no_such_primitive"):
        cpu.plan("tc", "hash_probe", "no_such_primitive")
    with pytest.raises(AttributeError, match="no_such_primitive"):
        cpu.plan("tc", then="no_such_primitive")
    cpu.bill(cpu.plan("tc", "hash_probe"))
    cpu.bill(cpu.plan("tc", then="copy_per_byte"), 64)
    assert cpu.busy_us == cpu.costs.hash_probe + cpu.costs.copy_per_byte * 64


def test_a_one_step_plan_bills_in_one_frame_without_a_sink_or_scaling():
    cpu = CpuModel(cores=4)
    probe = cpu.plan("tc", "hash_probe")
    copy = cpu.plan("tc", then="copy_per_byte")
    assert frames(lambda: cpu.bill(probe)) == {"cpu.bill": 1}
    assert frames(lambda: cpu.bill(copy, 120)) == {"cpu.bill": 1}


@pytest.mark.parametrize("steps", [("hash_probe",), ()])
def test_a_one_step_plan_bills_what_its_charge_bills(steps):
    """Three cores, so the clock advance is not a power-of-two scaling;
    a zero count still bills, as ``charge(p, 0)`` does."""
    billed, charged = CpuModel(cores=3), CpuModel(cores=3)
    then = None if steps else "delta_chain_hop"
    plan = billed.plan("tc_mvcc", *steps, then=then)
    for count in (1, 0, 7, 2.5):
        billed.bill(plan, count)
        if then is None:
            charged.charge("hash_probe", category="tc_mvcc")
        else:
            charged.charge(then, count, category="tc_mvcc")
        assert accounts(billed) == accounts(charged)
    billed.sink, charged.sink = ChargeRecorder(), ChargeRecorder()
    billed.bill(plan, 0)
    charged.charge(then or "hash_probe", 0 if then else 1.0, "tc_mvcc")
    assert billed.sink.events == charged.sink.events
    assert accounts(billed) == accounts(charged)


@pytest.mark.parametrize("sink", [False, True])
@pytest.mark.parametrize("bad", [float("nan"), -1.0, -float("inf")])
def test_a_bad_tail_count_raises_before_anything_is_billed(bad, sink):
    """With fixed steps before the tail, and for a tail alone."""
    for steps in (("install_cas",), ()):
        cpu = CpuModel(cores=4)
        cpu.sink = recorder = ChargeRecorder() if sink else None
        post = cpu.plan("bwtree", *steps, then="copy_per_byte")
        cpu.bill(post, 10)
        before = accounts(cpu)
        with pytest.raises(ValueError):
            cpu.bill(post, bad)
        assert accounts(cpu) == before
        if sink:
            assert len(recorder.events) == len(steps) + 1


def test_a_plan_billed_on_another_model_charges_there():
    """A plan holds its own model's prices and core count; billed on
    another model it charges that model's prices step by step."""
    cheap = CostTable().with_overrides(hash_probe=0.5, install_cas=0.25)
    owner, other = CpuModel(cores=1), CpuModel(cores=2, costs=cheap)
    reference = CpuModel(cores=2, costs=cheap)
    install = owner.plan("tc_mvcc", "hash_probe", "install_cas")
    other.bill(install)
    reference.charge("hash_probe", category="tc_mvcc")
    reference.charge("install_cas", category="tc_mvcc")
    assert accounts(other) == accounts(reference)
    other.bill(owner.plan("tc_mvcc", "hash_probe"))
    reference.charge("hash_probe", category="tc_mvcc")
    assert accounts(other) == accounts(reference)
    assert owner.busy_us == 0.0


def test_charges_after_a_reset_still_reach_the_counters():
    """The billing sequence adds to the dict behind ``cpu.counters``;
    a reset must keep that dict, not replace it."""
    cpu = CpuModel(cores=1)
    cpu.charge("context_switch", 3.0, "tc")
    cpu.reset()
    assert cpu.counters.snapshot() == {}
    cpu.charge("context_switch", 2.0, "tc")
    cpu.charge("hash_probe", category="mvcc")
    assert cpu.counters.snapshot() == {
        "cpu_us.tc": 2.0, "cpu_us.mvcc": cpu.costs.hash_probe}
    assert cpu.counters.get("cpu_us.tc") == 2.0

    machine = Machine.paper_default(cores=2)
    machine.cpu.charge("context_switch", 5.0, "tc")
    machine.reset_accounting()
    machine.cpu.charge("context_switch", 1.0, "bwtree")
    assert machine.cpu.counters.snapshot() == {"cpu_us.bwtree": 1.0}
    assert machine.cpu.busy_us == 1.0


class TestCostTable:
    def test_scaled_multiplies_everything(self):
        table = CostTable()
        doubled = table.scaled(2.0)
        assert doubled.op_dispatch == pytest.approx(table.op_dispatch * 2)
        assert doubled.io_submit_kernel == pytest.approx(
            table.io_submit_kernel * 2
        )

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostTable().scaled(0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scaled_rejects_a_factor_that_cannot_price(self, factor):
        with pytest.raises(ValueError, match="positive and finite"):
            CostTable().scaled(factor)

    def test_scaled_rejects_an_overflowing_price(self):
        with pytest.raises(ValueError, match="must be finite"):
            CostTable().scaled(1e308)

    def test_a_free_primitive_is_allowed(self):
        assert CostTable().with_overrides(hash_probe=0.0).hash_probe == 0.0

    def test_an_infinite_scale_factor_is_rejected(self):
        cpu = CpuModel(cores=1)
        with pytest.raises(ValueError, match="positive and finite"):
            cpu.scale_costs({"tc": float("inf")})
        cpu.charge("hash_probe", category="tc")
        assert cpu.busy_us == cpu.costs.hash_probe

    def test_with_overrides(self):
        table = CostTable().with_overrides(op_dispatch=9.0)
        assert table.op_dispatch == 9.0
        assert table.epoch_protect == CostTable().epoch_protect

    def test_kernel_path_costs_exceed_user_path(self):
        """The calibration invariant behind R_kernel > R_user."""
        table = CostTable()
        assert table.io_submit_kernel > table.io_submit_user
        assert table.io_complete_kernel > table.io_complete_user
