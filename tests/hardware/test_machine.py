"""Machine bundling and throughput summaries."""

import pytest

from repro.hardware import IoPathKind, Machine, RunSummary

from ..frames import count_calls


def test_paper_default_shape():
    machine = Machine.paper_default()
    assert machine.cpu.cores == 4
    assert machine.io_path.kind is IoPathKind.USER_LEVEL
    assert machine.ssd.spec.iops == pytest.approx(2.0e5)


def test_operations_counted():
    machine = Machine.paper_default()
    machine.begin_operation()
    machine.begin_operation()
    assert machine.operations == 2


def test_summary_cpu_bound_throughput():
    machine = Machine.paper_default(cores=2)
    for __ in range(100):
        machine.begin_operation()
        # A context switch is priced at one core-microsecond.
        machine.cpu.charge("context_switch", 1.0)
    summary = machine.summary()
    assert not summary.io_bound
    # 100 ops, 100 core-us over 2 cores -> 50 us elapsed -> 2 Mops/s.
    assert summary.throughput_ops_per_sec == pytest.approx(2e6)
    assert summary.core_us_per_op == pytest.approx(1.0)


def test_summary_io_bound_detection():
    machine = Machine.paper_default(cores=4)
    for __ in range(1000):
        machine.begin_operation()
        machine.cpu.charge("context_switch", 0.1)
        machine.ssd.read(4096)
    summary = machine.summary()
    assert summary.io_bound
    # Throughput clamps to the device: 2e5 IOPS.
    assert summary.throughput_ops_per_sec == pytest.approx(2e5, rel=0.01)


def test_summary_ios_per_op():
    machine = Machine.paper_default()
    machine.begin_operation()
    machine.ssd.read(100)
    machine.ssd.read(100)
    assert machine.summary().ios_per_op == pytest.approx(2.0)


def test_reset_accounting_preserves_resident_state():
    machine = Machine.paper_default()
    machine.dram.allocate(100, "x")
    machine.ssd.store_bytes(50)
    machine.begin_operation()
    machine.cpu.charge("context_switch", 1.0)
    machine.reset_accounting()
    summary = machine.summary()
    assert summary.operations == 0
    assert summary.cpu_busy_seconds == 0.0
    assert machine.dram.bytes_for("x") == 100
    assert machine.ssd.stored_bytes == 50


def test_empty_summary_is_all_zero():
    summary = RunSummary(operations=0, cpu_busy_seconds=0.0,
                         ssd_busy_seconds=0.0, cores=4, ssd_ios=0)
    assert summary.throughput_ops_per_sec == 0.0
    assert summary.core_us_per_op == 0.0
    assert summary.ios_per_op == 0.0


def latency_since(machine, window):
    """One op's latency: the execution plus device-service deltas."""
    cpu_before, service_before = window
    cpu_after, service_after = machine.latency_window()
    return (cpu_after - cpu_before) + (service_after - service_before)


def test_latency_window_brackets_one_op():
    machine = Machine.paper_default()
    window = machine.latency_window()
    machine.cpu.charge("context_switch", 2.0)
    machine.ssd.read(4096)
    latency = latency_since(machine, window)
    assert latency >= 2.0 + machine.ssd.spec.read_latency_us


def test_latency_reset_with_accounting():
    machine = Machine.paper_default()
    machine.cpu.charge("context_switch", 2.0)
    machine.ssd.read(4096)
    machine.reset_accounting()
    assert machine.latency_window() == (0.0, 0.0)


def test_the_latency_window_reads_plain_attributes():
    """Complexity guard: the harnesses call ``latency_window`` twice per
    op.  It enters one frame: the CPU's busy time, the SSD's service
    total and the clock are attributes, not property frames."""
    machine = Machine.paper_default()
    window = count_calls(machine.latency_window)
    assert window.frames == {"machine.latency_window": 1}
    properties = {"cpu.busy_us", "ssd.service_us_total", "clock.now"}
    assert properties.isdisjoint(window), properties & set(window)
