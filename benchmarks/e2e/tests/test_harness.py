"""The run itself: oracle, steady host time, traced == untraced."""

import pytest

import harness
from reference import REFERENCE_UNIT_NS
from scenarios import BY_NAME, REFERENCE_SECONDS


def smoke(name):
    return BY_NAME[name].sized(REFERENCE_SECONDS, smoke=True)


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_traced_run_repeats_the_untraced_virtual_numbers(name, tmp_path):
    scenario = smoke(name)
    untraced = harness.run_workload(scenario, seed=11)
    traced = harness.run_workload(scenario, seed=11, traced=True,
                                  spans_path=tmp_path / "spans.jsonl")
    assert untraced["ops_failed"] == traced["ops_failed"] == 0
    assert untraced["violations"] == traced["violations"] == []
    assert traced["repeatable"] == untraced["repeatable"]
    assert any(name.startswith("sim_") for name in untraced["repeatable"])

    layers = traced["layers"]
    timed = sum(value for name, value in layers.items()
                if name.endswith(".host_self_s"))
    assert timed == pytest.approx(traced["measured_wall_s"], rel=1e-6)
    assert layers["engine.host_calls"] > 0
    assert (tmp_path / "spans.jsonl").read_text().count("\n") > 0


def test_another_seed_gives_another_stream():
    scenario = smoke("read_cold")
    one = harness.run_workload(scenario, seed=1)["repeatable"]
    two = harness.run_workload(scenario, seed=2)["repeatable"]
    assert one["sim_core_us_per_op"] != two["sim_core_us_per_op"]


def test_oracle_counts_wrong_missing_and_raised_results():
    model = {b"a": b"1"}
    ops = [("get", b"a", None), ("put", b"a", b"2"), ("get", b"a", None),
           ("get", b"b", None), ("get", b"a", None)]
    right = [b"1", None, b"2", None, b"2"]
    assert harness._replay(dict(model), ops, right) == 0
    stale_read = [b"1", None, b"1", None, b"2"]
    assert harness._replay(dict(model), ops, stale_read) == 1
    raised = [b"1", None, harness.FAILED, None, harness.FAILED]
    assert harness._replay(dict(model), ops, raised) == 2
    assert harness._replay(dict(model), ops, right[:3]) == 2
    assert model == {b"a": b"1"}


def test_steady_time_ignores_bursts_follows_drift_and_host_speed():
    def steady(chunks, slowdown=1):
        units = [REFERENCE_UNIT_NS * slowdown] * len(chunks)
        return harness.steady_ns(chunks, units, windows=4)

    quiet = [100] * 64
    noisy = list(quiet)
    for index in range(0, 64, 5):       # a fifth of the samples disturbed
        noisy[index] += 5_000
    assert steady(quiet) == 6_400
    assert steady(noisy) == 6_400
    drifting = [100] * 32 + [300] * 32  # the second half really is slower
    assert steady(drifting) == 32 * 100 + 32 * 300
    assert steady([]) == 0
    # A host running everything, reference units included, at half
    # speed reports the same reference time.
    assert steady([2 * ns for ns in noisy], slowdown=2) == 6_400
    # ... also when it slows down half way through the run.
    units = [REFERENCE_UNIT_NS] * 32 + [3 * REFERENCE_UNIT_NS] * 32
    assert harness.steady_ns([100] * 32 + [300] * 32, units,
                             windows=4) == pytest.approx(6_400)
