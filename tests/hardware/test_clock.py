"""VirtualClock semantics."""

import pytest

from repro.hardware import VirtualClock


def test_starts_at_zero_by_default():
    assert VirtualClock().now == 0.0


def test_starts_at_given_time():
    assert VirtualClock(5.0).now == 5.0


def test_rejects_negative_start():
    with pytest.raises(ValueError):
        VirtualClock(-1.0)


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == 2.0


def test_advance_returns_new_time():
    clock = VirtualClock(1.0)
    assert clock.advance(2.0) == 3.0


def test_rejects_negative_advance():
    with pytest.raises(ValueError):
        VirtualClock().advance(-0.1)


def test_rejects_nan_advance_and_stays_put():
    clock = VirtualClock(1.0)
    with pytest.raises(ValueError):
        clock.advance(float("nan"))
    assert clock.now == 1.0


def test_zero_advance_is_allowed():
    clock = VirtualClock(1.0)
    clock.advance(0.0)
    assert clock.now == 1.0


def test_reset_rewinds():
    clock = VirtualClock()
    clock.advance(10.0)
    clock.reset()
    assert clock.now == 0.0


def test_reset_to_value():
    clock = VirtualClock()
    clock.advance(10.0)
    clock.reset(3.0)
    assert clock.now == 3.0


def test_reset_rejects_negative():
    with pytest.raises(ValueError):
        VirtualClock().reset(-2.0)
