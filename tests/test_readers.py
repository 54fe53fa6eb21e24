"""Property tests for the three argument readers of mesh_io.

Whatever object a caller passes, a reader either gives a result or raises
ValueError, and it warns about nothing.  A result is exact: whole_numbers
returns the int64s that equal the values, integer the int that
operator.index gives, and weight accepts only what its rule allows.
"""

import math
import operator
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from segmat.mesh_io import integer, weight, whole_numbers

scalars = st.one_of(
    st.none(), st.text(max_size=3), st.binary(max_size=3), st.booleans(),
    st.complex_numbers(), st.floats(), st.integers(),
    st.integers(-2**64, 2**64), st.fractions(),
    st.sampled_from([np.int64(-3), np.uint64(2**64 - 1), np.float32(2.5),
                     np.float64(7.0), np.bool_(True), np.complex128(1)]))
nested = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4),
                      max_leaves=12)
anything = st.one_of(
    nested,
    st.lists(scalars, max_size=5).map(lambda xs: np.array(xs + [None], dtype=object)[:-1]),
    st.lists(st.integers(-2**70, 2**70), max_size=5).map(np.array),
    st.lists(st.floats(), max_size=5).map(np.array),
    st.lists(st.booleans(), max_size=5).map(np.array),
    st.lists(st.complex_numbers(), max_size=3).map(np.array))


def read(reader, *args):
    """(reader's result, True), or (None, False) when it raised ValueError;
    any warning or other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return reader(*args), True
        except ValueError:
            return None, False


def is_bool(x):
    return isinstance(x, (bool, np.bool_))


@given(values=anything, bools=st.booleans())
def test_whole_numbers_are_exact_or_refused(values, bools):
    ints, ok = read(whole_numbers, values, "label", bools)
    if not ok:
        return
    given_values = np.asarray(values, dtype=object)
    assert ints.dtype == np.int64 and ints.shape == given_values.shape
    for got, value in zip(ints.ravel().tolist(), given_values.ravel().tolist()):
        assert got == value and -2**63 <= got < 2**63
        assert bools or not is_bool(value)


@given(value=anything, least=st.sampled_from([None, 0, 1]))
def test_integer_is_operator_index_or_refused(value, least):
    number, ok = read(integer, value, "k", least)
    if ok:
        assert type(number) is int and number == operator.index(value)
        assert least is None or number >= least


@given(value=anything, inf=st.booleans())
def test_weight_is_a_real_non_negative_number_or_refused(value, inf):
    _, ok = read(weight, value, "alpha", inf)
    if ok:
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        assert number >= 0.0 and (inf or math.isfinite(number))


@pytest.mark.parametrize("values, want", [
    ([1.0, -2.0], [1, -2]), ([], []), ([True, False], [1, 0]),
    ([2**53 + 1, 0.0], [2**53 + 1, 0]), ([-1, 2**63 - 1, 2.0], [-1, 2**63 - 1, 2]),
    (np.array([2**63 - 1], dtype=np.uint64), [2**63 - 1]),
    (np.array([Fraction(4, 2), 2**62], dtype=object), [2, 2**62]),
    ([[1, 2], [3, 4]], [[1, 2], [3, 4]])])
def test_whole_numbers_keep_every_value_they_accept(values, want):
    assert whole_numbers(values).tolist() == want


@pytest.mark.parametrize("values, shown", [
    (np.array([0, 2**63], dtype=np.uint64), "9223372036854775808"),
    ([0, 2**70], "1180591620717411303424"), ([0, "x"], "'x'"), ([1 + 0j], "(1+0j)"),
    (np.array([1.5, np.nan]), "1.5"), ([0, None, 0.5], "None"), (b"1", "b'1'")])
def test_whole_numbers_name_the_first_refused_value(values, shown):
    with pytest.raises(ValueError,
                       match=f"^label {re.escape(shown)} is not a whole number$"):
        whole_numbers(values)


@pytest.mark.parametrize("value, inf, message", [
    ("x", False, "alpha must be a number, got 'x'"),
    (math.nan, False, "alpha must be a finite number, got nan"),
    (math.inf, False, "alpha must be a finite number, got inf"),
    (2**1100, False, "alpha must be a finite number, got "),
    (-0.5, False, "alpha must not be negative, got -0.5"),
    (math.nan, True, "alpha must be a number, got nan"),
    (-math.inf, True, "alpha must not be negative, got -inf")])
def test_weight_messages(value, inf, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        weight(value, "alpha", inf)


def test_weight_takes_inf_only_where_allowed():
    weight(math.inf, "tau", inf=True)
    weight(2**1100, "tau", inf=True)
    weight(True, "alpha")
    weight(np.float32(0.5), "alpha")


@pytest.mark.parametrize("value, least, message", [
    (2.5, 1, "k must be an integer, got 2.5"),
    (2.0, 1, "k must be an integer, got 2.0"),
    (0, 1, "k must be at least 1"),
    (-3, 0, "k must not be negative, got -3")])
def test_integer_messages(value, least, message):
    with pytest.raises(ValueError, match="^" + message):
        integer(value, "k", least)
