"""Shape-check logic for the remaining result objects (synthetic data)."""

from repro.bench.ablations import A3Result, A5Result, A6Result, A8Result
from repro.bench.figures import Figure1Result, Figure3Result, Figure8Result
from repro.bench.tables import Table2Result, Table3Result, Table4Result
from repro.core import CostCatalog, paper_comparison
from repro.core.mixture import mixed_throughput, relative_performance


def make_figure1(r=5.8, distort=1.0):
    fractions = [i / 10 for i in range(11)]
    p0_1, p0_4 = 1e6, 4e6
    points_1 = [
        {"f": f, "throughput": mixed_throughput(p0_1, f, r) * distort}
        for f in (0.2, 0.5, 0.8)
    ]
    points_4 = [
        {"f": f, "throughput": mixed_throughput(p0_4, f, r) * distort}
        for f in (0.2, 0.5, 0.8)
    ]
    return Figure1Result(
        fractions=fractions,
        curve_r_low=[relative_performance(f, r * 0.7) for f in fractions],
        curve_r_mid=[relative_performance(f, r) for f in fractions],
        curve_r_high=[relative_performance(f, r * 1.3) for f in fractions],
        r_mid=r,
        points_1core=points_1,
        points_4core=points_4,
        p0_1core=p0_1,
        p0_4core=p0_4,
    )


class TestFigure1Shape:
    def test_accepts_points_on_the_curve(self):
        result = make_figure1()
        assert result.points_in_band() == result.total_points()
        assert result.shape_ok()

    def test_rejects_points_far_outside_band(self):
        result = make_figure1(distort=0.4)   # 60% below the model
        assert result.points_in_band() < result.total_points()
        assert not result.shape_ok()

    def test_render_mentions_both_core_counts(self):
        text = make_figure1().render()
        assert "1-core" in text and "4-core" in text


class TestFigure3Shape:
    def make(self):
        comparison = paper_comparison()
        size = 6.1e9
        crossover = comparison.breakeven_rate_ops_per_sec(size)
        rates = [crossover / 4, crossover, crossover * 4]
        bwtree = comparison.bwtree_line(size)
        masstree = comparison.masstree_line(size)
        return Figure3Result(
            comparison_paper=comparison,
            comparison_measured=comparison,
            px_measured=2.6, mx_measured=2.1,
            database_bytes=size, rates=rates,
            bwtree_costs=bwtree.totals(rates),
            masstree_costs=masstree.totals(rates),
            crossover_paper=crossover,
            crossover_measured=crossover,
        )

    def test_accepts_consistent_curves(self):
        assert self.make().shape_ok()

    def test_rejects_shifted_crossover(self):
        result = self.make()
        result.crossover_measured *= 10
        assert not result.shape_ok()


class TestFigure8Shape:
    def test_rejects_unordered_boundaries(self):
        result = Figure8Result(
            compression_ratio_rle=0.8, compression_ratio_deflate=0.3,
            r_css=9.0, rates=[0.001], mm_costs=[1.0], ss_costs=[0.5],
            css_costs=[0.4], css_to_ss_rate=1.0, ss_to_mm_rate=0.5,
        )
        assert not result.shape_ok()


class TestTableShapes:
    def test_table2_rejects_wrong_interval(self):
        from repro.bench.tables import table2
        good = table2()
        assert good.shape_ok()
        bad = Table2Result(
            catalog=CostCatalog(), interval_seconds=500.0, rate=1 / 500,
            storage_ratio=good.storage_ratio,
            execution_ratio=good.execution_ratio,
            gray_interval=good.gray_interval,
            record_cache_interval_10=good.record_cache_interval_10,
            crossover_check=1 / 500,
        )
        assert not bad.shape_ok()

    def test_table3_rejects_out_of_band_px(self):
        good_kwargs = dict(
            px=2.6, mx=2.1, constant=8.3e3, paper_constant=8.3e3,
            rate_6_1_gb=0.73e6, rate_100_gb=0.73e6 * 100 / 6.1,
            interval_2_7_kb=3.1,
        )
        assert Table3Result(**good_kwargs).shape_ok()
        bad = dict(good_kwargs)
        bad["px"] = 8.0
        assert not Table3Result(**bad).shape_ok()

    def test_table4_requires_band_and_kernel_gap(self):
        rows = [{"f": 0.3, "throughput": 1e6, "r": 5.9}]
        good = Table4Result(p0=4e6, rows=rows, r_mean=5.9, r_min=5.9,
                            r_max=5.9, r_kernel=9.0)
        assert good.shape_ok()
        bad = Table4Result(p0=4e6, rows=rows, r_mean=5.9, r_min=5.9,
                           r_max=5.9, r_kernel=5.0)
        assert not bad.shape_ok()


class TestAblationShapesMore:
    def test_a3_requires_io_savings(self):
        good = A3Result(
            operations=100, read_ios_page_only=1000,
            read_ios_with_tc=800, tc_hit_rate=0.5,
            breakeven_page_seconds=45.0,
            breakeven_record_seconds=450.0, records_per_page=10.0,
        )
        assert good.shape_ok()
        bad = A3Result(
            operations=100, read_ios_page_only=800,
            read_ios_with_tc=1000, tc_hit_rate=0.5,
            breakeven_page_seconds=45.0,
            breakeven_record_seconds=450.0, records_per_page=10.0,
        )
        assert not bad.shape_ok()

    def test_a5_requires_the_tradeoff(self):
        good = A5Result(updates=100, eager_flash_bytes=100,
                        lazy_flash_bytes=200, eager_relocated_bytes=500,
                        lazy_relocated_bytes=100, eager_efficiency=3.0,
                        lazy_efficiency=10.0)
        assert good.shape_ok()
        inverted = A5Result(updates=100, eager_flash_bytes=300,
                            lazy_flash_bytes=200,
                            eager_relocated_bytes=500,
                            lazy_relocated_bytes=100,
                            eager_efficiency=3.0, lazy_efficiency=10.0)
        assert not inverted.shape_ok()

    def test_a6_requires_monotone_tier_progression(self):
        good = A6Result(
            nvram_price_per_byte=2e-9, nvram_slowdown=2.0,
            rates=[1e-4, 1e-2, 1e-1, 10.0],
            tiers=["CSS", "SS", "NVM", "DRAM"],
            dram_vs_nvm_rate=0.126, nvm_vs_ss_rate=0.0076,
            ssd_savings_fraction=0.36,
        )
        assert good.shape_ok()
        regressing = A6Result(
            nvram_price_per_byte=2e-9, nvram_slowdown=2.0,
            rates=[1e-4, 1e-2, 1e-1, 10.0],
            tiers=["CSS", "NVM", "SS", "DRAM"],
            dram_vs_nvm_rate=0.126, nvm_vs_ss_rate=0.0076,
            ssd_savings_fraction=0.36,
        )
        assert not regressing.shape_ok()

    def test_a8_requires_strict_window_win(self):
        good = A8Result(
            compression_ratio=0.5, decompress_ratio=3.0,
            window_low_rate=0.001, window_high_rate=0.01,
            has_window=True, mm_cost_mid=10.0, ss_cost_mid=8.0,
            cmm_cost_mid=6.0, no_window_decompress_ratio=50.0,
        )
        assert good.shape_ok()
        losing = A8Result(
            compression_ratio=0.5, decompress_ratio=3.0,
            window_low_rate=0.001, window_high_rate=0.01,
            has_window=True, mm_cost_mid=10.0, ss_cost_mid=8.0,
            cmm_cost_mid=9.0, no_window_decompress_ratio=50.0,
        )
        assert not losing.shape_ok()
