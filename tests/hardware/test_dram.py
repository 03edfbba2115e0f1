"""DRAM byte accounting."""

import pytest

from repro.hardware import DramModel


def test_allocate_and_free():
    dram = DramModel()
    dram.allocate(100, "a")
    dram.allocate(50, "b")
    assert dram.current_bytes == 150
    dram.free(30, "a")
    assert dram.current_bytes == 120
    assert dram.bytes_for("a") == 70


def test_by_tag_omits_empty():
    dram = DramModel()
    dram.allocate(10, "x")
    dram.free(10, "x")
    dram.allocate(5, "y")
    assert dram.by_tag() == {"y": 5}


def test_cannot_overfree_tag():
    dram = DramModel()
    dram.allocate(10, "x")
    with pytest.raises(ValueError):
        dram.free(11, "x")


def test_cannot_free_untagged_from_other_tag():
    dram = DramModel()
    dram.allocate(10, "x")
    with pytest.raises(ValueError):
        dram.free(5, "y")


def test_negative_amounts_rejected():
    dram = DramModel()
    with pytest.raises(ValueError):
        dram.allocate(-1)
    with pytest.raises(ValueError):
        dram.free(-1)
