"""Span-stack arithmetic and wrapper hygiene of the layer tracer."""

import itertools

import pytest

from layertrace import LayerTracer, installed, wrap_table


class Leaf:
    def io(self):
        return "bytes"


class Inner:
    def __init__(self):
        self.leaf = Leaf()

    def work(self):
        return self.leaf.io()


class Outer:
    def __init__(self):
        self.inner = Inner()

    def run(self):
        return [self.inner.work(), self.inner.work()]

    @staticmethod
    def merge(parts):
        return "".join(parts)

    def boom(self):
        raise ValueError("boom")


def synthetic_table():
    return {
        "outer": [(Outer, ("run", "merge", "boom"))],
        "inner": [(Inner, ("work",))],
        "ssd": [(Leaf, ("io",))],
    }


def ticking_tracer():
    """Every clock read advances virtual host time by 10 ns."""
    ticks = itertools.count(10, 10)
    return LayerTracer(clock=lambda: next(ticks))


def test_self_time_is_duration_minus_child_spans():
    tracer = ticking_tracer()
    with installed(tracer, synthetic_table()):
        tracer.enabled = True
        assert Outer().run() == ["bytes", "bytes"]
    # outer 10..100; inner 20..50 and 60..90; leaf 30..40 and 70..80.
    assert tracer.aggregates["outer.run"] == [1, 90, 30]
    assert tracer.aggregates["inner.work"] == [2, 60, 40]
    assert tracer.aggregates["ssd.io"] == [2, 20, 20]
    totals = tracer.layer_totals()
    assert totals["inner"] == {"calls": 2, "self_s": pytest.approx(40e-9)}
    # Self times partition the time covered by root spans exactly.
    assert tracer.root_ns == 90
    assert sum(agg[2] for agg in tracer.aggregates.values()) == 90


def test_device_access_is_credited_to_nearest_software_layer():
    tracer = ticking_tracer()
    with installed(tracer, synthetic_table()):
        tracer.enabled = True
        Outer().run()
        Leaf().io()     # no enclosing layer at all
    assert tracer.ssd_ios == {"inner": 2, "driver": 1}


def test_only_the_marked_op_keeps_span_records():
    tracer = ticking_tracer()
    with installed(tracer, synthetic_table()):
        tracer.enabled = True
        outer = Outer()
        outer.run()
        tracer.sample_next(op_id=1024)
        outer.run()
        outer.run()
    assert [span["name"] for span in tracer.spans] == [
        "ssd.io", "inner.work", "ssd.io", "inner.work", "outer.run"]
    assert {span["op"] for span in tracer.spans} == {1024}
    root = tracer.spans[-1]
    assert root["parent"] is None
    by_id = {span["span"]: span for span in tracer.spans}
    for span in tracer.spans[:-1]:
        parent = by_id[span["parent"]]
        assert parent["start_ns"] < span["start_ns"]
        assert span["end_ns"] < parent["end_ns"]
    # All three runs are in the aggregates regardless.
    assert tracer.aggregates["outer.run"][0] == 3


def test_disabled_tracer_passes_through_and_records_nothing():
    tracer = ticking_tracer()
    with installed(tracer, synthetic_table()):
        assert Outer().run() == ["bytes", "bytes"]
        assert Outer.merge(["a", "b"]) == "ab"
    assert all(agg == [0, 0, 0] for agg in tracer.aggregates.values())


def test_exceptions_propagate_and_close_their_span():
    tracer = ticking_tracer()
    with installed(tracer, synthetic_table()):
        tracer.enabled = True
        with pytest.raises(ValueError, match="boom"):
            Outer().boom()
        assert tracer.aggregates["outer.boom"] == [1, 10, 10]
        tracer.reset()      # would refuse if the span were still open
    assert tracer.aggregates["outer.boom"] == [0, 0, 0]


def test_wrappers_are_removed_even_when_the_run_raises():
    before = {name: Outer.__dict__[name] for name in ("run", "merge", "boom")}
    with pytest.raises(RuntimeError):
        with installed(ticking_tracer(), synthetic_table()):
            assert Outer.__dict__["run"] is not before["run"]
            raise RuntimeError("run failed")
    assert {name: Outer.__dict__[name] for name in before} == before
    assert isinstance(Outer.__dict__["merge"], staticmethod)


def test_a_moved_layer_boundary_is_an_error_not_a_silent_gap():
    with pytest.raises(AttributeError, match="layer boundary moved"):
        with installed(ticking_tracer(), {"outer": [(Outer, ("gone",))]}):
            pass
    assert "gone" not in Outer.__dict__


def test_program_wrappers_install_and_restore():
    table = wrap_table()
    before = {(cls, name): cls.__dict__[name]
              for targets in table.values()
              for cls, names in targets for name in names}
    tracer = LayerTracer()
    with installed(tracer):
        assert all(cls.__dict__[name] is not original
                   for (cls, name), original in before.items())
    assert all(cls.__dict__[name] is original
               for (cls, name), original in before.items())
