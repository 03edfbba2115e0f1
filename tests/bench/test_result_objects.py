"""Shape-check logic of the experiment result objects, on synthetic data.

The experiment drivers are expensive; their acceptance logic is not.
These tests feed hand-built results through every ``shape_ok`` so both
the accepting and the rejecting paths are covered.
"""

from repro.bench.ablations import (
    A1Result,
    A2Result,
    A4Result,
    A7Result,
    A9Result,
    A10Result,
)
from repro.bench.figures import Figure2Result, Figure7Result
from repro.core import CostCatalog, breakeven_interval_seconds
from repro.core.mixture import mixed_throughput


class TestFigure2Shape:
    def make(self, swap=False):
        from repro.core import OperationCostModel, logspace_rates
        from repro.core.breakeven import breakeven_rate_ops_per_sec
        cat = CostCatalog()
        rate = breakeven_rate_ops_per_sec(cat)
        rates = logspace_rates(rate / 10, rate * 10, 9)
        model = OperationCostModel(cat)
        mm = model.mm_line().totals(rates)
        ss = model.ss_line().totals(rates)
        if swap:
            mm, ss = ss, mm
        return Figure2Result(
            rates=rates, mm_costs=mm, ss_costs=ss,
            breakeven_rate=rate,
            breakeven_interval=1 / rate,
        )

    def test_accepts_correct_curves(self):
        assert self.make().shape_ok()

    def test_rejects_swapped_curves(self):
        assert not self.make(swap=True).shape_ok()


class TestFigure7Shape:
    def make(self, r_user=5.8, r_kernel=9.0):
        from repro.core import OperationCostModel, logspace_rates
        from repro.core.breakeven import breakeven_rate_ops_per_sec
        cat_u = CostCatalog().with_r(r_user)
        cat_k = CostCatalog().with_r(r_kernel)
        rates = logspace_rates(1e-4, 1.0, 8)
        mm = OperationCostModel(cat_u).mm_line()
        ss_kernel = OperationCostModel(cat_k).ss_line()
        ss_user = OperationCostModel(cat_u).ss_line()
        return Figure7Result(
            r_kernel=r_kernel, r_user=r_user, rates=rates,
            mm_costs=mm.totals(rates),
            ss_costs_kernel=ss_kernel.totals(rates),
            ss_costs_user=ss_user.totals(rates),
            breakeven_kernel=breakeven_rate_ops_per_sec(cat_k),
            breakeven_user=breakeven_rate_ops_per_sec(cat_u),
        )

    def test_accepts_user_dominating(self):
        assert self.make().shape_ok()

    def test_rejects_inverted_rs(self):
        assert not self.make(r_user=9.0, r_kernel=5.8).shape_ok()


class TestAblationShapes:
    def test_a1_requires_strict_ordering(self):
        good = A1Result(update_count=10, logical_bytes=1000,
                        fixed_block_bytes=4000, full_page_bytes=2000,
                        delta_bytes=500)
        assert good.shape_ok()
        bad = A1Result(update_count=10, logical_bytes=1000,
                       fixed_block_bytes=1000, full_page_bytes=2000,
                       delta_bytes=500)
        assert not bad.shape_ok()
        assert good.amp_fixed == 4.0

    def test_a2_thresholds(self):
        assert A2Result(updates=100, blind_ios=0,
                        read_modify_write_ios=90).shape_ok()
        assert not A2Result(updates=100, blind_ios=10,
                            read_modify_write_ios=90).shape_ok()
        assert not A2Result(updates=100, blind_ios=0,
                            read_modify_write_ios=10).shape_ok()

    def test_a4_requires_monotone_and_40pct_step(self):
        cat = CostCatalog()
        from repro.core import iops_price_sweep
        values = [1e5, 3e5, 5e5]
        good = A4Result(iops_values=values,
                        intervals=iops_price_sweep(cat, values))
        assert good.shape_ok()
        bad = A4Result(iops_values=values, intervals=[1.0, 2.0, 3.0])
        assert not bad.shape_ok()

    def test_a7_checks_paper_numbers(self):
        ssd_ti = breakeven_interval_seconds(CostCatalog())
        good = A7Result(
            system_ops_per_sec=1e6, best_max_txn_per_sec=20.0,
            commodity_max_txn_per_sec=10.0,
            best_max_miss_fraction=2e-4, ops_per_latency=5000.0,
            hdd_breakeven_seconds=ssd_ti * 1000,
            ssd_breakeven_seconds=ssd_ti,
        )
        assert good.shape_ok()
        bad = A7Result(
            system_ops_per_sec=1e6, best_max_txn_per_sec=500.0,
            commodity_max_txn_per_sec=10.0,
            best_max_miss_fraction=2e-4, ops_per_latency=5000.0,
            hdd_breakeven_seconds=ssd_ti * 1000,
            ssd_breakeven_seconds=ssd_ti,
        )
        assert not bad.shape_ok()

    def test_a9_requires_consistent_r(self):
        p0 = 4e6
        points = []
        r_values = []
        for f in (0.2, 0.4, 0.6):
            pf = mixed_throughput(p0, f, 8.0)
            points.append({"cache_fraction": 1 - f, "f": f,
                           "throughput": pf})
            r_values.append(8.0)
        good = A9Result(p0=p0, points=points, r_values=r_values)
        assert good.shape_ok()
        scattered = A9Result(p0=p0, points=points,
                             r_values=[2.0, 8.0, 20.0])
        assert not scattered.shape_ok()

    def test_a10_requires_floating_footprint(self):
        good = A10Result(
            data_bytes=500_000, hot_set_bytes=75_000,
            offered_ops_per_sec=30.0,
            adaptive_phase1_bytes=140_000.0,
            adaptive_phase2_bytes=150_000.0,
            adaptive_f_phase2_tail=0.02,
            all_dram_bytes=500_000.0,
            adaptive_bill=0.003, all_dram_bill=0.005,
        )
        assert good.shape_ok()
        stuck = A10Result(
            data_bytes=500_000, hot_set_bytes=75_000,
            offered_ops_per_sec=30.0,
            adaptive_phase1_bytes=480_000.0,   # never released hot set A
            adaptive_phase2_bytes=480_000.0,
            adaptive_f_phase2_tail=0.02,
            all_dram_bytes=500_000.0,
            adaptive_bill=0.003, all_dram_bill=0.005,
        )
        assert not stuck.shape_ok()


class TestRendering:
    def test_every_result_renders_text(self):
        """render() must produce non-empty monospace text for each."""
        results = [
            TestFigure2Shape().make(),
            TestFigure7Shape().make(),
            A1Result(update_count=10, logical_bytes=1000,
                     fixed_block_bytes=4000, full_page_bytes=2000,
                     delta_bytes=500),
            A2Result(updates=100, blind_ios=0,
                     read_modify_write_ios=90),
        ]
        for result in results:
            text = result.render()
            assert isinstance(text, str)
            assert len(text.splitlines()) >= 3
