"""Tier specs and storage hierarchies: validation, ordering, presets."""

import pytest

from repro.hardware import StorageHierarchy, TierSpec


def tier(**overrides) -> TierSpec:
    base = dict(
        name="t", dollars_per_byte=1e-9, access_latency_s=1e-6,
        iops=1e6, io_dollars=10.0, cpu_path_r=2.0,
    )
    base.update(overrides)
    return TierSpec(**base)


class TestTierSpec:
    def test_valid_spec_round_trips(self):
        spec = tier(name="nvme", durable_home=True)
        assert spec.name == "nvme"
        assert spec.durable_home
        assert spec.io_dollars_per_access_rate == pytest.approx(
            spec.io_dollars / spec.iops
        )

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            tier(name="")


def stack(*specs) -> StorageHierarchy:
    return StorageHierarchy(tuple(specs))


class TestStorageHierarchy:
    def test_needs_two_tiers(self):
        with pytest.raises(ValueError, match="two tiers"):
            stack(tier(name="only", durable_home=True))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            stack(tier(name="a", dollars_per_byte=2e-9),
                  tier(name="a", dollars_per_byte=1e-9,
                       durable_home=True))

    def test_prices_must_strictly_decrease(self):
        with pytest.raises(ValueError, match="cheaper"):
            stack(tier(name="a", dollars_per_byte=1e-9),
                  tier(name="b", dollars_per_byte=1e-9,
                       durable_home=True))

    def test_cpu_path_must_not_decrease(self):
        with pytest.raises(ValueError, match="CPU path"):
            stack(tier(name="a", dollars_per_byte=2e-9, cpu_path_r=5.0),
                  tier(name="b", dollars_per_byte=1e-9, cpu_path_r=2.0,
                       durable_home=True))

    def test_home_must_be_bottom(self):
        with pytest.raises(ValueError, match="bottom"):
            stack(tier(name="a", dollars_per_byte=2e-9,
                       durable_home=True),
                  tier(name="b", dollars_per_byte=1e-9, cpu_path_r=3.0,
                       durable_home=True))
        with pytest.raises(ValueError, match="durable home"):
            stack(tier(name="a", dollars_per_byte=2e-9),
                  tier(name="b", dollars_per_byte=1e-9, cpu_path_r=3.0))

    def test_structure_accessors(self):
        hierarchy = StorageHierarchy.cxl_2026()
        assert len(hierarchy) == 3
        assert hierarchy.top.name == "dram"
        assert hierarchy.home.name == "nvme-ssd"
        assert hierarchy.home.durable_home
        assert hierarchy.get("cxl-far-memory").cpu_path_r == 1.6
        with pytest.raises(KeyError):
            hierarchy.get("tape")
        pairs = hierarchy.pairs()
        assert [(u.name, lo.name) for u, lo in pairs] == [
            ("dram", "cxl-far-memory"), ("cxl-far-memory", "nvme-ssd"),
        ]
        assert list(iter(hierarchy)) == list(hierarchy.tiers)
        assert hierarchy[0] is hierarchy.top


class TestPresets:
    def test_paper_2018_matches_catalog_constants(self):
        from repro.core import CostCatalog
        hierarchy = StorageHierarchy.paper_2018()
        catalog = CostCatalog()
        assert len(hierarchy) == 2
        assert hierarchy.top.dollars_per_byte == catalog.dram_per_byte
        assert hierarchy.home.cpu_path_r == catalog.r
        assert hierarchy.home.iops == catalog.iops
        assert hierarchy.home.io_dollars == catalog.ssd_io_dollars

    def test_modern_2026_is_four_tiers_validated(self):
        hierarchy = StorageHierarchy.modern_2026()
        assert len(hierarchy) == 4
        assert [t.name for t in hierarchy] == [
            "dram", "cxl-far-memory", "nvme-ssd", "object-store",
        ]
        # Load/store tiers carry no device capital.
        assert hierarchy.get("dram").io_dollars == 0.0
        assert hierarchy.get("cxl-far-memory").io_dollars == 0.0
