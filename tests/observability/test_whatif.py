"""The what-if causal profiler: prediction == actual, per contract.

The profiler's whole claim is that folding the recorded charge stream
*is* the scaled run where the scenario is linear, and stays within a
stated tolerance where it is not (docs/PROFILING.md).  Pinned here per
component on a sync single engine and a sync fleet (bit-exact), on the
device pseudo-components (float-assoc), on the deliberately nonlinear
shared-log-device case (queueing, error strictly between zero and the
tolerance), as a hypothesis property that a 1.0x "speedup" is a
bit-for-bit no-op, and on the CLI (deterministic byte-identical
output; dispatch through ``python -m repro``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.whatif import (
    CONTRACT_EXACT,
    CONTRACT_FLOAT_ASSOC,
    CONTRACT_QUEUEING,
    DEVICE_LOG,
    DEVICE_SSD,
    QUEUEING_REL_TOL,
    _scenario_kwargs,
    available_components,
    check_agreement,
    contract_for,
    main,
    parse_speedup,
    predict,
    render_json,
    render_report,
    run_scenario,
    run_whatif,
    summarize,
)
from repro.scenarios import ASYNC_COMMIT, Scenario

SYNC_SINGLE = Scenario(seed=11, mix="a", record_count=128, op_count=400)
SYNC_FLEET = Scenario(seed=11, mix="b", record_count=128, op_count=400,
                      shards=4)
#: The deliberately nonlinear scenario: two shards share one commit-log
#: drive and the epoch window is tiny (0.5us), so speeding the CPU up
#: shifts epoch boundaries and changes the device write count — a
#: linear fold cannot see that.
NONLINEAR = Scenario(seed=7, mix="a", record_count=128, op_count=400,
                     shards=2, log_topology="shared",
                     tc_config=replace(ASYNC_COMMIT, commit_interval_us=0.5))


def _validate(config: Scenario, component: str, speedup: float = 2.0):
    """(predicted view, actual view, contract, agreement errors)."""
    baseline = run_scenario(config, record=True)
    predicted = predict(baseline, component, speedup)
    actual = run_scenario(config, **_scenario_kwargs(component, speedup))
    contract = contract_for(config, component)
    errors = check_agreement(predicted, actual, contract)
    return predicted, actual, contract, errors


class TestExactContract:
    """CPU components under sync commit: bit-identical, no tolerance."""

    def test_every_component_single_engine(self):
        baseline = run_scenario(SYNC_SINGLE, record=True)
        components = available_components(baseline)
        assert "bwtree" in components and "tc" in components
        for component in components:
            if component in (DEVICE_SSD, DEVICE_LOG):
                continue
            __, __, contract, errors = _validate(SYNC_SINGLE, component)
            assert contract == CONTRACT_EXACT
            # check_agreement already asserted bit-equality; the
            # reported errors must read exactly zero.
            assert errors["dollars_rel_err"] == 0.0
            assert errors["elapsed_rel_err"] == 0.0
            assert errors["core_seconds_rel_err"] == 0.0

    def test_every_component_sync_fleet(self):
        baseline = run_scenario(SYNC_FLEET, record=True)
        for component in available_components(baseline):
            if component in (DEVICE_SSD, DEVICE_LOG):
                continue
            __, __, contract, errors = _validate(SYNC_FLEET, component)
            assert contract == CONTRACT_EXACT
            assert errors["dollars_rel_err"] == 0.0

    def test_exact_means_full_summary_equality(self):
        predicted, actual, __, __ = _validate(SYNC_SINGLE, "bwtree")
        assert summarize(predicted) == summarize(actual)

    def test_speedup_below_one_is_a_slowdown_and_still_exact(self):
        predicted, actual, __, __ = _validate(SYNC_SINGLE, "bwtree", 0.5)
        p, a = summarize(predicted), summarize(actual)
        assert p == a
        base = summarize(run_scenario(SYNC_SINGLE))
        assert p.dollars_per_op > base.dollars_per_op


class TestDeviceContracts:
    def test_ssd_is_float_assoc_under_sync(self):
        predicted, actual, contract, errors = _validate(
            SYNC_SINGLE, DEVICE_SSD)
        assert contract == CONTRACT_FLOAT_ASSOC
        # CPU accounting and I/O counts are untouched by device scaling.
        assert summarize(predicted).core_seconds \
            == summarize(actual).core_seconds
        assert summarize(predicted).ssd_ios == summarize(actual).ssd_ios
        assert errors["ssd_ios_rel_err"] == 0.0

    def test_log_device_on_shared_topology(self):
        config = Scenario(seed=7, mix="a", record_count=128,
                          op_count=400, shards=2, tc_config=ASYNC_COMMIT,
                          log_topology="shared")
        __, __, contract, errors = _validate(config, DEVICE_LOG)
        assert contract == CONTRACT_QUEUEING
        assert errors["dollars_rel_err"] <= QUEUEING_REL_TOL

    def test_log_device_absent_without_dedicated_drive(self):
        baseline = run_scenario(SYNC_SINGLE, record=True)
        assert DEVICE_LOG not in available_components(baseline)

    def test_log_topology_rules_surface_from_the_fleet_constructor(self):
        """Nobody re-implements ShardedEngine's two topology rules; a
        bad fleet scenario fails with the constructor's error and the
        bare-engine path keeps its own guards."""
        sync_shared = Scenario(record_count=64, op_count=64, shards=2,
                               log_topology="shared")
        with pytest.raises(ValueError,
                           match="requires the commit pipeline"):
            run_scenario(sync_shared)
        colocated_fleet = Scenario(record_count=64, op_count=64,
                                   shards=2, tc_config=ASYNC_COMMIT)
        with pytest.raises(ValueError, match="log_ssd_spec"):
            run_scenario(colocated_fleet, log_factor=2.0)
        with pytest.raises(ValueError, match="needs a fleet"):
            run_scenario(SYNC_SINGLE, log_factor=2.0)
        with pytest.raises(ValueError, match="require a fleet"):
            Scenario(tc_config=ASYNC_COMMIT, log_topology="shared")


class TestQueueingContract:
    def test_default_window_async_is_effectively_linear(self):
        """At the default 50us epoch window, boundary shifts do not
        change epoch counts — measured error is zero even though the
        contract stays ``queueing`` (linearity is not guaranteed)."""
        config = Scenario(seed=11, mix="a", record_count=128,
                          op_count=400, shards=2, tc_config=ASYNC_COMMIT)
        __, __, contract, errors = _validate(config, "bwtree")
        assert contract == CONTRACT_QUEUEING
        assert errors["dollars_rel_err"] == 0.0

    def test_tiny_window_is_genuinely_nonlinear_but_within_tolerance(self):
        """The headline case: a 0.5us epoch window makes epoch counts
        clock-sensitive, so prediction and actual *must* disagree —
        and the disagreement must stay inside the documented
        tolerance.  A zero error here would mean the test lost its
        nonlinearity; above-tolerance means the contract is wrong."""
        __, __, contract, errors = _validate(NONLINEAR, "bwtree")
        assert contract == CONTRACT_QUEUEING
        err = errors["dollars_rel_err"]
        assert 0.0 < err <= QUEUEING_REL_TOL
        assert 0.0 < errors["elapsed_rel_err"] <= QUEUEING_REL_TOL

    def test_pathological_window_fails_loudly(self):
        """Past the documented envelope the tool must refuse to bless
        the prediction, not stretch the tolerance."""
        config = Scenario(seed=7, mix="a", record_count=128,
                          op_count=800, shards=2, log_topology="shared",
                          tc_config=replace(ASYNC_COMMIT,
                                            commit_interval_us=1.0))
        baseline = run_scenario(config, record=True)
        predicted = predict(baseline, "bwtree", 8.0)
        actual = run_scenario(config,
                              **_scenario_kwargs("bwtree", 8.0))
        with pytest.raises(AssertionError, match="queueing contract"):
            check_agreement(predicted, actual, CONTRACT_QUEUEING)


class TestNoOpProperty:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           mix=st.sampled_from(["a", "b", "c"]),
           shards=st.sampled_from([0, 2]))
    def test_1x_speedup_is_bit_for_bit_noop(self, seed, mix, shards):
        """Scaling by 1.0 must not perturb a single bit — predicted
        *and* actual runs both equal the baseline exactly."""
        config = Scenario(seed=seed, mix=mix, record_count=64,
                          op_count=160, shards=shards)
        baseline = run_scenario(config, record=True)
        for component in available_components(baseline):
            predicted = predict(baseline, component, 1.0)
            actual = run_scenario(
                config, **_scenario_kwargs(component, 1.0))
            base, p, a = (summarize(v)
                          for v in (baseline, predicted, actual))
            assert p == base
            assert a == base
            assert [s.busy_us for s in predicted.shards] \
                == [s.busy_us for s in baseline.shards]
            assert [s.busy_us for s in actual.shards] \
                == [s.busy_us for s in baseline.shards]


class TestRankingAndResult:
    def test_sweep_ranks_by_savings_and_validates_top(self):
        result = run_whatif(SYNC_SINGLE, speedup=2.0, validate="top")
        savings = [e["savings_dollars_per_op"]
                   for e in result["components"]]
        assert savings == sorted(savings, reverse=True)
        assert [e["rank"] for e in result["components"]] \
            == list(range(1, len(savings) + 1))
        assert len(result["validated"]) == 1
        top = result["components"][0]
        assert result["validated"][0]["component"] == top["component"]

    def test_unknown_component_is_rejected(self):
        with pytest.raises(ValueError, match="unknown component"):
            run_whatif(SYNC_SINGLE, components=["flux_capacitor"])

    def test_parse_speedup(self):
        assert parse_speedup("bwtree:2x") == ("bwtree", 2.0)
        assert parse_speedup("ssd:1.5") == ("ssd", 1.5)
        with pytest.raises(ValueError):
            parse_speedup("bwtree")
        with pytest.raises(ValueError):
            parse_speedup("bwtree:0x")

    @pytest.mark.parametrize("spec", ["ssd:nan", "bwtree:inf", "ssd:1e400",
                                      "bwtree:-2x"])
    def test_parse_speedup_refuses_a_factor_that_is_not_a_speedup(self,
                                                                  spec):
        with pytest.raises(ValueError, match="positive and finite"):
            parse_speedup(spec)

    @pytest.mark.parametrize("speedup", [float("nan"), float("inf"), 0.0])
    def test_predict_and_run_whatif_refuse_a_non_finite_speedup(self,
                                                                speedup):
        baseline = run_scenario(SYNC_SINGLE, record=True)
        with pytest.raises(ValueError, match="positive and finite"):
            predict(baseline, "bwtree", speedup)
        with pytest.raises(ValueError, match="positive and finite"):
            run_whatif(SYNC_SINGLE, speedup=speedup)


class TestCli:
    ARGS = ["--seed", "11", "--records", "64", "--ops", "160",
            "--speedup", "bwtree:2x"]

    def test_report_is_byte_identical_across_runs(self, tmp_path, capsys):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert main(self.ARGS + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        assert "rank component" in text
        assert "exact" in text
        assert "rel err 0.000e+00" in text

    def test_json_format_is_deterministic_and_validated(self, tmp_path):
        out = tmp_path / "whatif.json"
        assert main(self.ARGS + ["--format", "json",
                                 "--out", str(out)]) == 0
        import json as jsonlib

        doc = jsonlib.loads(out.read_bytes())
        assert doc["schema"] == 1
        assert doc["validated"][0]["component"] == "bwtree"
        assert doc["validated"][0]["agreement"]["dollars_rel_err"] == 0.0
        result = run_whatif(
            Scenario(seed=11, mix="a", record_count=64, op_count=160),
            components=["bwtree"], speedup=2.0, validate="all")
        assert render_json(result).encode() == out.read_bytes()
        assert "top causal bottlenecks" not in render_json(result)
        assert "bwtree" in render_report(result)

    def test_sweep_and_speedup_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--sweep", "--speedup", "bwtree:2x"])
        assert excinfo.value.code != 0

    def test_dispatch_through_python_m_repro(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["whatif", "--seed", "11", "--records", "64",
             "--ops", "160", "--speedup", "bwtree:2x"]) == 0
        out = capsys.readouterr().out
        assert "validated bwtree @2x" in out

    def test_smoke_passes(self):
        assert main(["--smoke"]) == 0
