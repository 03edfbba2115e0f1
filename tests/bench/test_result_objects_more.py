"""Named regression cases over the claim table (F1/F3/F8, tables, A3-A8);
see ``test_result_objects`` for why these delegate to ``CASES``."""

from repro.bench import EXPERIMENTS, render
from repro.core.mixture import relative_performance

from .test_experiments import check_case, f1_points, status


class TestFigure1Shape:
    def test_accepts_points_on_the_curve(self):
        assert status("f1", "inside the R", f1_points()) == "pass"

    def test_rejects_points_far_outside_band(self):
        check_case("f1", "inside the R")   # 60% below the model

    def test_render_mentions_both_core_counts(self):
        """Figure 1 is the one row with several tables."""
        values = f1_points()
        values["fractions"] = fractions = [i / 10 for i in range(11)]
        for name, scale in (("low", 0.7), ("mid", 1.0), ("high", 1.3)):
            values[f"curve_r_{name}"] = [
                relative_performance(f, 5.8 * scale) for f in fractions]
        text = render(EXPERIMENTS["f1"], values)
        assert "1-core" in text and "4-core" in text
        assert text.count("\n\n") == 2


class TestFigure3Shape:
    def test_accepts_consistent_curves(self):
        check_case("f3", "Eq. (8)")

    def test_rejects_shifted_crossover(self):
        check_case("f3", "cheaper below")


class TestFigure8Shape:
    def test_rejects_unordered_boundaries(self):
        check_case("f8", "lies below")


class TestTableShapes:
    def test_table2_rejects_wrong_interval(self):
        check_case("t2", "interval Ti")
        check_case("t2", "agree")

    def test_table3_rejects_out_of_band_px(self):
        check_case("t3", "Px")

    def test_table4_requires_band_and_kernel_gap(self):
        check_case("t4", "user-level R")
        check_case("t4", "larger R")


class TestAblationShapesMore:
    def test_a3_requires_io_savings(self):
        check_case("a3", "avoid read I/O")

    def test_a5_requires_the_tradeoff(self):
        check_case("a5", "footprint")

    def test_a6_requires_monotone_tier_progression(self):
        check_case("a6", "never moves colder")

    def test_a8_requires_strict_window_win(self):
        check_case("a8", "cheaper than SS")
