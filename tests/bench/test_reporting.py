"""Text rendering helpers."""

import pytest

from repro.bench import format_table


def test_table_alignment_and_title():
    text = format_table(
        ["name", "value"],
        [["alpha", 1], ["beta", 22]],
        title="demo",
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "alpha" in lines[3]
    assert "22" in lines[4]


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_number_formatting():
    text = format_table(["x"], [[1234567], [0.000123], [3.14159], [True]])
    assert "1,234,567" in text
    assert "0.000123" in text
    assert "3.142" in text
    assert "yes" in text
