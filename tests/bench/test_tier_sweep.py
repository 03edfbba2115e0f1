"""``python -m repro tiers``: the N-tier breakeven surface row."""

from repro.__main__ import main as cli_main
from repro.bench import EXPERIMENTS, render
from repro.bench.experiments import TIER_PRESETS
from repro.core import (
    Advisor,
    CostCatalog,
    breakeven_interval_seconds,
    crossover,
    hierarchy_breakeven_surface,
    hierarchy_lines,
)
from repro.hardware import StorageHierarchy, TierSpec

from .test_experiments import failed_claims as failed


TIERS = EXPERIMENTS["tiers"]


def render_surface():
    return render(TIERS, TIERS.measure())


def failed_claims(catalog=None):
    return failed("tiers", TIERS.measure(catalog))


class TestRenderSurface:
    def test_render_is_deterministic(self):
        assert render_surface() == render_surface()

    def test_covers_every_preset(self):
        out = render_surface()
        for preset in TIER_PRESETS:
            assert f"[{preset}]" in out

    def test_paper_row_prints_equation_6_interval(self):
        eq6 = breakeven_interval_seconds(CostCatalog())
        assert f"{eq6:.3f}" in render_surface()

    def test_modern_sweep_names_top_and_bottom_tiers(self):
        out = render_surface()
        assert "dram" in out
        assert "object-store" in out
        assert "cxl-far-memory" in out

    def test_surface_has_at_least_three_tier_pairs(self):
        # cxl-2026 contributes 2 boundaries and modern-2026 three more:
        # the "deterministic surface over >= 3 tier pairs" acceptance bar.
        out = render_surface()
        assert out.count(" / ") >= 3


class TestSmokeCheck:
    def test_invariants_hold(self):
        assert failed_claims() == []

    def test_detects_catalog_preset_drift(self):
        # The paper-2018 preset bakes in the paper's R; a catalog whose R
        # disagrees breaks the exact Equation (6) reduction and the claim
        # must say so rather than silently passing.
        failures = failed_claims(CostCatalog().with_r(2.0))
        assert any("Eq. (6)" in failure for failure in failures)


class TestDominatedTier:
    def test_dominated_middle_tier_is_absent_from_boundaries(self):
        """A middle tier barely cheaper than DRAM but with most of the
        I/O path's CPU cost is never the cheapest place for a page: the
        per-pair surface still prints both of its boundaries (out of
        order — the symptom), the advisor's envelope skips it."""
        hierarchy = StorageHierarchy((
            TierSpec(name="dram", dollars_per_byte=5.0e-9,
                     access_latency_s=100e-9, iops=1.0e9, io_dollars=0.0,
                     cpu_path_r=1.0),
            TierSpec(name="slow-dimm", dollars_per_byte=4.9e-9,
                     access_latency_s=1e-6, iops=1.0e8, io_dollars=0.0,
                     cpu_path_r=5.0),
            TierSpec(name="nvme-ssd", dollars_per_byte=0.5e-9,
                     access_latency_s=80e-6, iops=2.0e5, io_dollars=50.0,
                     cpu_path_r=5.8, durable_home=True),
        ))
        surface = hierarchy_breakeven_surface(hierarchy)
        assert surface[0].interval_seconds > surface[1].interval_seconds
        dram, __, nvme = lines = hierarchy_lines(hierarchy)
        advisor = Advisor(lines)
        assert advisor.boundaries() == [
            ("dram", "nvme-ssd", crossover(dram, nvme)),
        ]
        assert advisor.tier_for_rate(crossover(dram, nvme) * 1.01) == "dram"
        assert advisor.tier_for_rate(crossover(dram, nvme) * 0.99) \
            == "nvme-ssd"


class TestCli:
    def test_tiers_renders(self, capsys):
        assert cli_main(["tiers"]) == 0
        out = capsys.readouterr().out
        assert "N-tier breakeven surface" in out

    def test_tiers_smoke_passes(self, capsys):
        """The old smoke invariants are the row's claims: they always
        run, and the CLI prints one scorecard line for each."""
        assert cli_main(["tiers"]) == 0
        out = capsys.readouterr().out
        for claim in TIERS.claims:
            assert f"tiers · {claim.name} · " in out
        assert "fail" not in out
