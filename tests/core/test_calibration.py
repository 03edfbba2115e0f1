"""Calibration harness against the simulated stack (small configs).

These are integration tests of the measurement protocol itself; the full
paper-scale runs live in benchmarks/.
"""

import pytest

from repro.core import (
    StackConfig,
    build_loaded_stack,
    catalog_from_measurements,
    derive_r,
    measure_direct_r,
    measure_p0,
    measure_point,
    measure_px_mx,
    run_measurement,
)
from repro.core.catalog import CostCatalog
from repro.hardware import IoPathKind

SMALL = StackConfig(record_count=4_000, measure_operations=1_500,
                    warmup_operations=400)


def test_build_loaded_stack_contents():
    machine, tree, generator = build_loaded_stack(SMALL)
    assert len(tree.mapping_table) > 10
    assert machine.operations == 0          # accounting was reset
    key, __ = next(iter(generator.load_items()))
    assert tree.get(key) is not None


def test_cache_fraction_shrinks_residency():
    config = SMALL.replace(cache_fraction=0.3)
    __, tree, __g = build_loaded_stack(config)
    assert tree.cache.capacity_bytes is not None
    assert tree.cache.resident_bytes <= tree.cache.capacity_bytes


def test_cache_fraction_validation():
    with pytest.raises(ValueError):
        build_loaded_stack(SMALL.replace(cache_fraction=1.5))


def test_p0_has_no_ss_ops():
    run = measure_p0(SMALL)
    assert run.f == 0.0
    assert run.throughput > 0
    assert not run.summary.io_bound


def test_starved_cache_produces_ss_ops():
    run = measure_point(SMALL.replace(cache_fraction=0.2,
                                      ssd_iops_override=1e9))
    assert run.f > 0.05
    assert run.throughput < measure_p0(SMALL).throughput


def test_direct_r_in_paper_band():
    r = measure_direct_r(SMALL)
    assert 5.8 * 0.7 < r < 5.8 * 1.3


def test_kernel_path_r_larger():
    r_user = measure_direct_r(SMALL)
    r_kernel = measure_direct_r(SMALL.replace(io_path=IoPathKind.KERNEL))
    assert r_kernel > r_user * 1.2


def test_derive_r_from_points():
    experiment = derive_r(SMALL.replace(ssd_iops_override=5e6),
                          cache_fractions=(0.5, 0.25))
    assert experiment.derivation is not None
    assert 3.0 < experiment.r_mean < 9.0
    assert len(experiment.points) == 2


def test_px_mx_measurement():
    measurement = measure_px_mx(record_count=4_000,
                                measure_operations=1_500)
    assert measurement.px > 1.5
    assert measurement.mx > 1.3
    comparison = measurement.comparison()
    assert comparison.breakeven_constant > 0


def test_catalog_from_measurements():
    run = measure_p0(SMALL)
    catalog = catalog_from_measurements(run, r=6.0, page_bytes=2100.0)
    assert catalog.rops == pytest.approx(run.throughput)
    assert catalog.r == 6.0
    assert catalog.page_bytes == 2100.0
    assert catalog.dram_per_byte == CostCatalog().dram_per_byte


def test_run_measurement_counts_its_operations():
    machine, tree, generator = build_loaded_stack(SMALL)
    run = run_measurement(machine, tree, generator, SMALL)
    assert run.stats.operations == SMALL.measure_operations
