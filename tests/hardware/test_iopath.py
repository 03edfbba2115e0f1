"""I/O path CPU charges: the source of the user-vs-kernel R gap."""

import pytest

from repro.hardware import CpuModel, IoPathKind, IoPathModel

from ..frames import count_calls


def make(kind: IoPathKind) -> tuple:
    cpu = CpuModel(cores=1)
    return cpu, IoPathModel(kind, cpu)


def test_user_round_trip_charges_submit_complete_switches():
    cpu, path = make(IoPathKind.USER_LEVEL)
    charged = path.charge_round_trip(4096)
    expected = (cpu.costs.io_submit_user + cpu.costs.io_complete_user
                + 2 * cpu.costs.context_switch)
    assert charged == pytest.approx(expected)
    assert cpu.busy_us == pytest.approx(expected)


def test_kernel_round_trip_includes_copy_per_byte():
    cpu, path = make(IoPathKind.KERNEL)
    nbytes = 1000
    charged = path.charge_round_trip(nbytes)
    expected = (cpu.costs.io_submit_kernel + cpu.costs.io_complete_kernel
                + 2 * cpu.costs.context_switch
                + cpu.costs.kernel_copy_per_byte * nbytes)
    assert charged == pytest.approx(expected)


def test_kernel_path_strictly_more_expensive():
    __, user = make(IoPathKind.USER_LEVEL)
    __, kernel = make(IoPathKind.KERNEL)
    assert kernel.charge_round_trip(2700) > user.charge_round_trip(2700)


def test_submit_and_complete_sum_to_round_trip():
    cpu_a, path_a = make(IoPathKind.USER_LEVEL)
    cpu_b, path_b = make(IoPathKind.USER_LEVEL)
    path_a.charge_round_trip(512)
    path_b.charge_submit(512)
    path_b.charge_complete(512)
    assert cpu_a.busy_us == pytest.approx(cpu_b.busy_us)


def test_charges_land_in_io_path_category():
    cpu, path = make(IoPathKind.USER_LEVEL)
    path.charge_round_trip(100)
    assert cpu.counters.get("cpu_us.io_path") == pytest.approx(cpu.busy_us)


def test_a_user_round_trip_is_two_billed_plans():
    """Each user-level half bills its two charges as one plan and
    returns the total those charges return.  The halves stay calls of
    their own: a traced e2e run counts round trips by
    ``charge_complete`` calls."""
    cpu, path = make(IoPathKind.USER_LEVEL)
    reference = CpuModel(cores=1)
    halves = []
    for step in ("io_submit_user", "io_complete_user"):
        charged = 0.0
        charged += reference.charge(step, category="io_path")
        charged += reference.charge("context_switch", category="io_path")
        halves.append(charged)
    assert path.charge_round_trip(4096) == halves[0] + halves[1]
    assert ((cpu.busy_us, cpu.counters.snapshot(), cpu.clock.now)
            == (reference.busy_us, reference.counters.snapshot(),
                reference.clock.now))
    assert count_calls(lambda: path.charge_round_trip(4096)).frames == {
        "iopath.charge_round_trip": 1, "iopath.charge_submit": 1,
        "iopath.charge_complete": 1, "cpu.bill": 2}
