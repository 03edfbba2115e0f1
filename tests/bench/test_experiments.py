"""The experiment table (``repro.bench.EXPERIMENTS``), claim by claim.

The paper-scale runs live in benchmarks/.  Here every claim of every row
is fed one accepting and one rejecting synthetic ``values`` dict holding
only the keys it reads, so a claim that cannot fail breaks this suite;
a handful of reduced-size runs then exercise the measure functions end
to end.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.bench import EXPERIMENTS, check_shapes, render
from repro.core import CostCatalog
from repro.core.mixture import mixed_throughput


def f1_points(distort=1.0, r=5.8):
    values = {"r_mid": r, "p0_1core": 1e6, "p0_4core": 4e6}
    for cores, p0 in ((1, 1e6), (4, 4e6)):
        values[f"points_{cores}core"] = [
            {"f": f, "throughput": mixed_throughput(p0, f, r) * distort}
            for f in (0.2, 0.5, 0.8)
        ]
    return values


def _row(interval):
    return SimpleNamespace(interval_seconds=interval)


_F2 = {"rates": [0.01, 0.1], "breakeven_rate": 0.03,
       "mm_costs": [3.0, 3.0], "ss_costs": [1.0, 9.0]}
_F3 = {"crossover_measured": 100.0, "rates": [10.0, 1000.0],
       "bwtree_costs": [1.0, 9.0], "masstree_costs": [2.0, 5.0]}
_F8 = {"css_to_ss_rate": 0.01, "ss_to_mm_rate": 1.0,
       "rates": [0.001, 0.1, 10.0], "mm_costs": [9.0, 9.0, 1.0],
       "ss_costs": [5.0, 1.0, 5.0], "css_costs": [1.0, 5.0, 9.0]}
_A9 = {"points": [{"f": 0.2, "throughput": 3.0},
                  {"f": 0.4, "throughput": 2.0},
                  {"f": 0.6, "throughput": 1.0}]}
_A10 = {"data_bytes": 500_000, "hot_set_bytes": 75_000,
        "adaptive_phase1_bytes": 140_000.0,
        "adaptive_phase2_bytes": 150_000.0}
_TI = ({"breakeven_interval": 45.2}, {"breakeven_interval": 500.0})
_PX = ({"px": 2.6}, {"px": 8.0})
_MX = ({"mx": 2.1}, {"mx": 1.0})
_EQ8 = ({"rate_6_1_gb": 6.1, "rate_100_gb": 100.0}, {"rate_100_gb": 50.0})

#: (experiment id, unique fragment of the claim's name, accepting values,
#: the keys that change to make it reject).
CASES = [
    ("f1", "declines", {"curve_r_mid": [1.0, 0.6, 0.3]},
     {"curve_r_mid": [1.0, 0.6, 0.7]}),
    ("f1", "inside the R", f1_points(), f1_points(distort=0.4)),
    ("f1", "user-level R", {"r_mid": 5.8}, {"r_mid": 9.0}),
    ("f1", "4-core P0", {"p0_1core": 1e6, "p0_4core": 4e6},
     {"p0_4core": 1.5e6}),
    ("f2", "cheaper below", _F2,
     {"mm_costs": _F2["ss_costs"], "ss_costs": _F2["mm_costs"]}),
    ("f2", "exactly once", _F2, {"ss_costs": [1.0, 1.0]}),
    ("f2", "interval Ti", *_TI),
    ("f3", "cheaper below", _F3, {"crossover_measured": 1e4}),
    ("f3", "Eq. (8)", *_EQ8),
    ("f3", "Px", *_PX),
    ("f3", "Mx", *_MX),
    ("f3", "paper-constants",
     {"crossover_measured": 7.4e5, "crossover_paper": 7.3e5},
     {"crossover_measured": 2e6}),
    ("f7", "never above",
     {"ss_costs_user": [1.0, 2.0], "ss_costs_kernel": [1.5, 2.5]},
     {"ss_costs_user": [2.0, 2.0]}),
    ("f7", "raises the breakeven",
     {"breakeven_kernel": 0.015, "breakeven_user": 0.021},
     {"breakeven_user": 0.01}),
    ("f7", "user-level R", {"r_user": 5.8}, {"r_user": 9.0}),
    ("f7", "kernel-path R", {"r_kernel": 9.0}, {"r_kernel": 5.0}),
    ("f7", "kernel R over user R", {"r_kernel": 9.0, "r_user": 5.8},
     {"r_kernel": 5.8, "r_user": 9.0}),
    ("f8", "lies below", _F8, {"css_to_ss_rate": 1.0, "ss_to_mm_rate": 0.5}),
    ("f8", "three regimes", _F8, {"css_costs": [9.0, 5.0, 9.0]}),
    ("f8", "DEFLATE", {"compression_ratio_deflate": 0.3},
     {"compression_ratio_deflate": 0.9}),
    ("f8", "dearer", {"r_css": 9.0}, {"r_css": 5.0}),
    ("t1", "ROPS", {"measured_rops": 4.1e6}, {"measured_rops": 1e6}),
    ("t1", "page bytes", {"measured_page_bytes": 2750.0},
     {"measured_page_bytes": 5000.0}),
    ("t1", "ratio R", {"measured_r": 6.0}, {"measured_r": 9.0}),
    ("t2", "interval Ti", *_TI),
    ("t2", "storage cost", {"storage_ratio": 11.0}, {"storage_ratio": 13.0}),
    ("t2", "execution cost", {"execution_ratio": 9.1},
     {"execution_ratio": 14.0}),
    ("t2", "agree", {"crossover_check": 1 / 45.0, "breakeven_interval": 45.0},
     {"crossover_check": 1 / 500.0}),
    ("t2", "Gray", {"gray_interval": 18.5, "breakeven_interval": 45.2},
     {"gray_interval": 50.0}),
    ("t3", "Px", *_PX),
    ("t3", "Mx", *_MX),
    ("t3", "constant", {"constant": 8.2e3, "paper_constant": 8.3e3},
     {"constant": 2e4}),
    ("t3", "Eq. (8): crossover", *_EQ8),
    ("t4", "user-level R", {"r_mean": 5.9}, {"r_mean": 9.0}),
    ("t4", "larger R", {"r_mean": 5.9, "r_kernel": 9.0}, {"r_kernel": 5.0}),
    ("t4", "per-point", {"r_mean": 5.9, "r_min": 5.5, "r_max": 6.3},
     {"r_max": 9.0}),
    ("a1", "variable-size",
     {"fixed_block_bytes": 4000, "full_page_bytes": 2000},
     {"full_page_bytes": 3500}),
    ("a1", "delta-only", {"delta_bytes": 500, "full_page_bytes": 2000},
     {"delta_bytes": 2500}),
    ("a1", "flushed at all", {"delta_bytes": 500}, {"delta_bytes": 0}),
    ("a2", "read nothing", {"blind_ios": 0}, {"blind_ios": 10}),
    ("a2", "read-modify-write",
     {"updates": 100, "read_modify_write_ios": 90},
     {"read_modify_write_ios": 10}),
    ("a3", "avoid read I/O",
     {"read_ios_with_tc": 800, "read_ios_page_only": 1000},
     {"read_ios_with_tc": 1000, "read_ios_page_only": 800}),
    ("a3", "without reaching", {"tc_hit_rate": 0.5}, {"tc_hit_rate": 0.05}),
    ("a3", "records per page",
     {"breakeven_record_seconds": 450.0, "breakeven_page_seconds": 45.0,
      "records_per_page": 10.0}, {"records_per_page": 20.0}),
    ("a4", "strictly shrink", {"intervals": [3.0, 2.0, 1.0]},
     {"intervals": [1.0, 2.0, 3.0]}),
    ("a4", "300k -> 500k",
     {"iops_values": [3e5, 5e5], "io_terms": [10.0, 6.0]},
     {"io_terms": [10.0, 9.0]}),
    ("a5", "footprint", {"eager_flash_bytes": 100, "lazy_flash_bytes": 200},
     {"eager_flash_bytes": 300}),
    ("a5", "reclaims more",
     {"eager_efficiency": 3.0, "lazy_efficiency": 10.0},
     {"lazy_efficiency": 3.0}),
    ("a6", "never moves colder", {"tiers": ["CSS", "SS", "NVM", "DRAM"]},
     {"tiers": ["CSS", "NVM", "SS", "DRAM"]}),
    ("a6", "wins a band", {"tiers": ["CSS", "SS", "NVM", "DRAM"]},
     {"tiers": ["CSS", "SS", "DRAM"]}),
    ("a6", "under half", {"ssd_savings_fraction": 0.36},
     {"ssd_savings_fraction": 0.6}),
    ("a6", "sits between",
     {"nvm_vs_ss_rate": 0.0076, "dram_vs_nvm_rate": 0.126},
     {"nvm_vs_ss_rate": 0.2}),
    ("a7", "best drive", {"best_max_txn_per_sec": 20.0},
     {"best_max_txn_per_sec": 500.0}),
    ("a7", "one HDD latency", {"ops_per_latency": 5000.0},
     {"ops_per_latency": 4000.0}),
    ("a7", "commodity",
     {"commodity_max_txn_per_sec": 10.0, "best_max_txn_per_sec": 20.0},
     {"commodity_max_txn_per_sec": 30.0}),
    ("a7", "saturates", {"best_max_miss_fraction": 2e-4},
     {"best_max_miss_fraction": 0.05}),
    ("a7", "archive",
     {"ssd_breakeven_seconds": 45.0, "hdd_breakeven_seconds": 9e4},
     {"hdd_breakeven_seconds": 100.0}),
    ("a8", "wins a middle band", {"has_window": True}, {"has_window": False}),
    ("a8", "opens below",
     {"window_low_rate": 0.001, "window_high_rate": 0.01},
     {"window_low_rate": 0.1}),
    ("a8", "cheaper than MM", {"cmm_cost_mid": 6.0, "mm_cost_mid": 10.0},
     {"cmm_cost_mid": 11.0}),
    ("a8", "cheaper than SS", {"cmm_cost_mid": 6.0, "ss_cost_mid": 8.0},
     {"cmm_cost_mid": 9.0}),
    ("a8", "closes the window",
     {"decompress_ratio": 3.0, "no_window_decompress_ratio": 6.0,
      "cmm_boundaries_at_close": 0},
     {"no_window_decompress_ratio": float("inf"),
      "cmm_boundaries_at_close": None}),
    ("a9", "throughput strictly declines", _A9,
     {"points": _A9["points"][::-1]}),
    ("a9", "F strictly grows", _A9, {"points": _A9["points"][::-1]}),
    ("a9", "enough points", {"r_values": [8.0, 8.0, 8.0]},
     {"r_values": [8.0]}),
    ("a9", "one R explains", {"r_spread_fraction": 0.1},
     {"r_spread_fraction": 0.9}),
    ("a9", "exceeds the Bw-tree", {"r_mean": 8.0}, {"r_mean": 3.0}),
    ("a10", "phase-1", _A10, {"adaptive_phase1_bytes": 480_000.0}),
    ("a10", "phase-2", _A10, {"adaptive_phase2_bytes": 480_000.0}),
    ("a10", "rather than collapsing", _A10,
     {"adaptive_phase1_bytes": 10_000.0}),
    ("a10", "low again", {"adaptive_f_phase2_tail": 0.02},
     {"adaptive_f_phase2_tail": 0.5}),
    ("a10", "bill", {"adaptive_bill": 0.003, "all_dram_bill": 0.005},
     {"adaptive_bill": 0.006}),
    ("tiers", "reduces exactly",
     {"surfaces": {"paper-2018": [_row(45.0)]}, "eq6_interval": 45.0},
     {"eq6_interval": 45.1}),
    ("tiers", "strictly increase", {"surfaces": {"x": [_row(1.0), _row(2.0)]}},
     {"surfaces": {"x": [_row(2.0), _row(1.0)]}}),
    ("tiers", "at least three",
     {"surfaces": {"modern-2026": [_row(1.0), _row(2.0), _row(3.0)]}},
     {"surfaces": {"modern-2026": [_row(1.0), _row(2.0)]}}),
    ("tiers", "per-pair Ti",
     {"envelopes": {"x": [{"rate": 2.0, "per_pair_rate": 2.0}]}},
     {"envelopes": {"x": [{"rate": 2.0, "per_pair_rate": 2.1}]}}),
    ("tiers", "flips",
     {"envelopes": {"x": [{"hot": "dram", "cold": "ssd",
                           "below": "ssd", "above": "dram"}]}},
     {"envelopes": {"x": [{"hot": "dram", "cold": "ssd",
                           "below": "dram", "above": "dram"}]}}),
    ("tiers", "up-stack", {"winner_depths": {"x": [2, 2, 1, 0]}},
     {"winner_depths": {"x": [1, 2, 0]}}),
]


def find_claim(experiment_id, fragment):
    matches = [claim for claim in EXPERIMENTS[experiment_id].claims
               if fragment in claim.name]
    assert len(matches) == 1, (experiment_id, fragment, matches)
    return matches[0]


def status(experiment_id, fragment, values):
    """``check_shapes``'s verdict on one claim over ``values``."""
    only = replace(EXPERIMENTS[experiment_id],
                   claims=(find_claim(experiment_id, fragment),))
    (row,) = check_shapes(only, values)
    return row["status"]


def check_case(experiment_id, fragment):
    """Both directions of the one ``CASES`` row for this claim."""
    (case,) = [case for case in CASES
               if case[:2] == (experiment_id, fragment)]
    __, __, accepting, changes = case
    assert status(experiment_id, fragment, accepting) == "pass"
    assert status(experiment_id, fragment, {**accepting, **changes}) == "fail"


def failed_claims(experiment_id, values):
    return [row["claim"]
            for row in check_shapes(EXPERIMENTS[experiment_id], values)
            if row["status"] == "fail"]


class TestClaims:
    @pytest.mark.parametrize(
        "experiment_id, fragment", [case[:2] for case in CASES],
        ids=[f"{case[0]}-{case[1]}" for case in CASES])
    def test_claim_accepts_and_rejects(self, experiment_id, fragment):
        check_case(experiment_id, fragment)

    def test_every_claim_owns_a_rejecting_case(self):
        """A claim added without proof that it can fail breaks tier-1."""
        proven = {(experiment_id, find_claim(experiment_id, fragment).name)
                  for experiment_id, fragment, __, __ in CASES}
        assert len(proven) == len(CASES)
        assert proven == {
            (experiment.id, claim.name)
            for experiment in EXPERIMENTS.values()
            for claim in experiment.claims
        }

    def test_a4_step_claim_reads_the_sweep_not_a_fresh_catalog(self):
        """A sweep holding neither 300k nor 500k IOPS proves nothing
        about the paper's 40% step (this passed before the claim read
        the sweep's own I/O terms)."""
        values = {"iops_values": [1, 2], "intervals": [2.0, 1.0],
                  "io_terms": [2.0, 1.0]}
        assert failed_claims("a4", values) == [
            find_claim("a4", "300k -> 500k").name]

    def test_a8_window_that_never_closes_fails_the_closing_claim(self):
        experiment = EXPERIMENTS["a8"]
        values = experiment.measure(compression_ratio=0.05)
        assert values["no_window_decompress_ratio"] == float("inf")
        assert failed_claims("a8", values) == [
            find_claim("a8", "closes the window").name]
        assert "never (< 1000 probed)" in render(experiment, values)


class TestFigure2:
    def test_shape_and_render(self):
        experiment = EXPERIMENTS["f2"]
        values = experiment.measure()
        assert failed_claims("f2", values) == []
        text = render(experiment, values)
        assert "breakeven" in text
        assert "45" in text

    def test_breakeven_matches_paper(self):
        values = EXPERIMENTS["f2"].measure()
        assert values["breakeven_interval"] == pytest.approx(45.2, abs=0.5)

    def test_custom_catalog_shifts_crossover(self):
        # Cheaper DRAM makes retention cheaper: pages can idle longer
        # before eviction wins, so the breakeven interval grows past the
        # paper's 45 s — the one claim that is about the paper's catalog.
        cheap_dram = CostCatalog(dram_per_byte=1e-9)
        values = EXPERIMENTS["f2"].measure(cheap_dram)
        assert values["breakeven_interval"] > 45.5
        assert failed_claims("f2", values) == [
            find_claim("f2", "interval Ti").name]


class TestFigure8:
    @pytest.fixture(scope="class")
    def values(self):
        return EXPERIMENTS["f8"].measure(record_count=400)

    def test_shape(self, values):
        assert failed_claims("f8", values) == []

    def test_measured_ratios_sane(self, values):
        assert 0.0 < values["compression_ratio_deflate"] < 0.8
        assert 0.0 < values["compression_ratio_rle"] <= 1.0
        assert values["r_css"] > CostCatalog().r

    def test_render_names_three_regimes(self, values):
        text = render(EXPERIMENTS["f8"], values)
        assert "CSS" in text and "MM" in text and "SS" in text


class TestTable2:
    def test_shape(self):
        assert failed_claims("t2", EXPERIMENTS["t2"].measure()) == []

    def test_render_contains_rule(self):
        experiment = EXPERIMENTS["t2"]
        assert "five-minute" in render(experiment, experiment.measure())


class TestAblations:
    def test_a1_write_amplification_ordering(self):
        values = EXPERIMENTS["a1"].measure(record_count=1_500, updates=2_000)
        assert failed_claims("a1", values) == []
        assert (values["fixed_block_bytes"] > values["full_page_bytes"]
                >= values["delta_bytes"])

    def test_a2_blind_updates_do_no_io(self):
        # At this size the store is too small for read-modify-write to
        # miss on 80% of updates; the blind-update claim holds anyway.
        values = EXPERIMENTS["a2"].measure(record_count=1_500, updates=600)
        assert status("a2", "read nothing", values) == "pass"
        assert values["read_modify_write_ios"] > values["updates"] * 0.5

    def test_a4_iops_sweep(self):
        values = EXPERIMENTS["a4"].measure()
        assert failed_claims("a4", values) == []
        assert values["intervals"][0] > values["intervals"][-1]

    def test_a4_custom_values(self):
        values = EXPERIMENTS["a4"].measure(iops_values=[1e5, 1e6])
        assert len(values["intervals"]) == 2
        assert status("a4", "300k -> 500k", values) == "fail"

