"""Unit tests for the coverage bit vector (the §3.3 overlay data structure)."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.engine.coverage import CoverageBitVector


def test_set_covers_one_line():
    vector = CoverageBitVector(10)
    vector.set(3)
    assert vector.covered_lines() == {3}
    assert vector.as_int() == 1 << 3


def test_out_of_range_ignored():
    vector = CoverageBitVector(10)
    vector.set(99)
    assert vector.count() == 0
    assert vector.covered_lines() == set()
    assert vector.as_int() == 0


def test_count_and_percent():
    vector = CoverageBitVector.from_lines(10, [0, 1, 2])
    assert vector.count() == 3
    assert vector.percent() == 30.0


def test_empty_vector_percent():
    assert CoverageBitVector(0).percent() == 0.0


def test_or_with_merges():
    a = CoverageBitVector.from_lines(10, [1, 2])
    b = CoverageBitVector.from_lines(10, [2, 3])
    a.or_with(b)
    assert a.covered_lines() == {1, 2, 3}


def test_or_with_size_mismatch():
    with pytest.raises(ValueError):
        CoverageBitVector(4).or_with(CoverageBitVector(8))


def test_as_int_roundtrip():
    a = CoverageBitVector.from_lines(16, [0, 5, 15])
    b = CoverageBitVector(16, a.as_int())
    assert a == b


def test_lines_and_bits_agree():
    vector = CoverageBitVector.from_lines(4, [1, 3])
    assert vector.covered_lines() == {1, 3}
    assert vector.as_int() == 0b1010
    assert vector.size == 4


def test_vector_rebuilt_from_bits_is_independent():
    a = CoverageBitVector.from_lines(8, [1])
    b = CoverageBitVector(a.size, a.as_int())
    b.set(2)
    assert a.covered_lines() == {1}
    assert b.covered_lines() == {1, 2}


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        CoverageBitVector(-1)


@settings(max_examples=100)
@given(lines_a=st.sets(st.integers(min_value=0, max_value=63)),
       lines_b=st.sets(st.integers(min_value=0, max_value=63)))
def test_or_matches_set_union_property(lines_a, lines_b):
    """ORing coverage vectors is exactly set union over covered lines."""
    a = CoverageBitVector.from_lines(64, lines_a)
    b = CoverageBitVector.from_lines(64, lines_b)
    a.or_with(b)
    assert a.covered_lines() == lines_a | lines_b
    # ORing is idempotent and monotone.
    before = a.count()
    a.or_with(b)
    assert a.count() == before
