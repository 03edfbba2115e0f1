"""Simulated SSD: accounting, capacity, busy time."""

import pytest

from repro.hardware import SimulatedSsd, SsdFullError, SsdSpec


def test_default_spec_matches_paper():
    spec = SsdSpec()
    assert spec.capacity_bytes == 500 * 10**9
    assert spec.iops == pytest.approx(2.0e5)
    assert spec.iops_price_dollars == pytest.approx(50.0)


def test_iops_price_is_drive_minus_flash():
    spec = SsdSpec(capacity_bytes=10**9, price_dollars=10.0,
                   flash_price_per_byte=4e-9)
    assert spec.iops_price_dollars == pytest.approx(6.0)


def test_iops_price_never_negative():
    spec = SsdSpec(capacity_bytes=10**12, price_dollars=1.0,
                   flash_price_per_byte=1e-9)
    assert spec.iops_price_dollars == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SsdSpec(capacity_bytes=0)
    with pytest.raises(ValueError):
        SsdSpec(iops=0)
    with pytest.raises(ValueError):
        SsdSpec(price_dollars=-1)


@pytest.mark.parametrize("field, value", [
    ("iops", float("nan")),
    ("iops", float("inf")),
    ("read_latency_us", -5.0),
    ("read_latency_us", float("nan")),
    ("write_latency_us", -1.0),
    ("bandwidth_bytes_per_sec", float("nan")),
    ("bandwidth_bytes_per_sec", 0.0),
    ("capacity_bytes", float("inf")),
    ("price_dollars", float("nan")),
    ("flash_price_per_byte", -1.0),
    ("flash_price_per_byte", float("inf")),
])
def test_spec_refuses_a_field_that_cannot_describe_a_device(field, value):
    """A NaN IOPS made busy time NaN, a negative latency a negative
    service time, a negative flash price a $I of $5e11: each is now
    refused by name at construction."""
    with pytest.raises(ValueError, match=f"SsdSpec.{field} "):
        SsdSpec(**{field: value})


def test_zero_latency_and_zero_prices_still_describe_a_device():
    spec = SsdSpec(read_latency_us=0.0, write_latency_us=0.0,
                   price_dollars=0.0, flash_price_per_byte=0.0)
    assert SimulatedSsd(spec).read(4096) == pytest.approx(
        4096 / spec.bandwidth_bytes_per_sec * 1e6)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -2.0])
def test_scaled_refuses_a_factor_that_is_not_a_speedup(factor):
    with pytest.raises(ValueError, match="positive and finite"):
        SsdSpec().scaled(factor)


def test_scaled_iops_keeps_other_fields():
    spec = SsdSpec().scaled_iops(5e5)
    assert spec.iops == 5e5
    assert spec.capacity_bytes == SsdSpec().capacity_bytes
    assert spec.price_dollars == SsdSpec().price_dollars


def test_read_counts_ios_and_bytes():
    ssd = SimulatedSsd()
    ssd.read(4096)
    ssd.read(4096)
    assert ssd.counters.get("ssd.reads") == 2
    assert ssd.counters.get("ssd.read_bytes") == 8192
    assert ssd.total_ios == 2


def test_write_counts_separately():
    ssd = SimulatedSsd()
    ssd.write(1024)
    assert ssd.counters.get("ssd.writes") == 1
    assert ssd.counters.get("ssd.reads") == 0


def test_rejects_empty_io():
    with pytest.raises(ValueError):
        SimulatedSsd().read(0)


def test_busy_time_is_iops_bound_for_small_ios():
    ssd = SimulatedSsd(SsdSpec(iops=1000))
    ssd.read(512)
    assert ssd.busy_seconds == pytest.approx(1 / 1000)


def test_busy_time_is_bandwidth_bound_for_large_ios():
    spec = SsdSpec(iops=1e6, bandwidth_bytes_per_sec=1e6)
    ssd = SimulatedSsd(spec)
    ssd.write(2_000_000)   # two seconds at 1 MB/s
    assert ssd.busy_seconds == pytest.approx(2.0)


def test_latency_recorded():
    ssd = SimulatedSsd()
    service = ssd.read(4096)
    assert service >= ssd.spec.read_latency_us
    assert ssd.latencies.count == 1


def test_store_and_release_bytes():
    ssd = SimulatedSsd()
    ssd.store_bytes(1000)
    assert ssd.stored_bytes == 1000
    ssd.release_bytes(400)
    assert ssd.stored_bytes == 600


def test_capacity_enforced():
    ssd = SimulatedSsd(SsdSpec(capacity_bytes=100))
    with pytest.raises(SsdFullError):
        ssd.store_bytes(101)


def test_cannot_release_more_than_stored():
    ssd = SimulatedSsd()
    ssd.store_bytes(10)
    with pytest.raises(ValueError):
        ssd.release_bytes(11)


def test_reset_preserves_stored_bytes():
    ssd = SimulatedSsd()
    ssd.store_bytes(500)
    ssd.read(4096)
    ssd.reset()
    assert ssd.stored_bytes == 500
    assert ssd.total_ios == 0
    assert ssd.busy_seconds == 0.0
