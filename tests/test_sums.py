"""The one summation rule of the scheme reports: the kernel's `schemes._row_sums`
and the scalar oracle's `_sum` (tests/oracle.py).

Both add left to right from +0.0, so the batch kernel's row sums have the
scalar oracle's bits on any IEEE host. Results are compared as int64, so the
sign of zero counts, and a sum that is infinite raises the sum-rate
overflow error in both.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpzsim.schemes import _row_sums

from oracle import _sum

MAX = sys.float_info.max
TINY = 2.0**-1074
OVERFLOW = "sum rate overflows the float range"


def scalar_outcome(x):
    try:
        return np.array([_sum(row) for row in x.tolist()], dtype=float).view(np.int64).tolist()
    except ValueError as exc:
        return str(exc)


def batch_outcome(x):
    try:
        return _row_sums(x).view(np.int64).tolist()
    except ValueError as exc:
        return str(exc)


def test_sums_are_strict_left_folds():
    # 1.0 + 2**-53 ties to even at 1.0, twice; a correctly rounded sum and a
    # compensated one (builtin sum from Python 3.12) give the next float up.
    row = [1.0, 2.0**-53, 2.0**-53]
    assert math.fsum(row) == 1.0000000000000002
    assert _sum(row) == 1.0
    assert _row_sums(np.array([row, row[::-1]])).tolist() == [1.0, 1.0000000000000002]


def test_empty_and_negative_zero_rows_sum_to_plus_zero():
    for row in ([], [-0.0], [-0.0, -0.0]):
        assert math.copysign(1.0, _sum(row)) == 1.0
        sums = _row_sums(np.array([row, row]).reshape(2, len(row)))
        assert sums.tolist() == [0.0, 0.0] and not np.signbit(sums).any()


@pytest.mark.parametrize("row", [[MAX, MAX], [1.0, math.inf], [-MAX, -MAX]])
def test_infinite_sums_raise_the_overflow_error(row):
    with pytest.raises(ValueError, match=OVERFLOW):
        _sum(row)
    with pytest.raises(ValueError, match=OVERFLOW):
        _row_sums(np.array([[1.0, 2.0], row]))


VALUE = (st.floats(allow_nan=False, allow_infinity=False)
         | st.floats(0.0, 1.0) | st.floats(0.0, 1e9)
         | st.sampled_from([0.0, -0.0, TINY, 1.0, 2.0**-53, 2.0**-54, MAX, -MAX, math.inf]))


@st.composite
def rows(draw):
    k = draw(st.sampled_from((0, 1, 10, 37)))
    values = draw(st.lists(st.lists(VALUE, min_size=k, max_size=k), min_size=1, max_size=8))
    return np.array(values, dtype=float).reshape(len(values), k)


@settings(max_examples=150, deadline=None)
@given(x=rows())
@example(x=np.array([[1.0, 2.0**-53, 2.0**-53], [2.0**-53, 2.0**-53, 1.0]]))
@example(x=np.array([[1e-320, 3e-320, -2e-320], [1.0, TINY, -1.0], [-0.0, -0.0, -0.0]]))
@example(x=np.array([[MAX, MAX, -MAX], [MAX, -MAX, MAX]]))
def test_row_sums_match_sum_row_by_row(x):
    assert batch_outcome(x) == scalar_outcome(x)
