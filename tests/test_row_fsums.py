"""`schemes._row_fsums` against `math.fsum`, row by row.

The helper sums every row of an array at once and hands a row to
`math.fsum` only where it cannot certify its own result. Each result must
have fsum's bits (compared as int64, so the sign of zero and NaN payloads
count), and a call that raises must raise fsum's exception for the first
row, in row order, on which fsum raises (a ValueError for its OverflowError,
as for any sum rate that leaves the float range).
"""

import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpzsim.schemes import _row_fsums

WIDTHS = (0, 1, 2, 10, 37)
MAX = sys.float_info.max
TINY = 2.0**-1074

# 1.5 + (2**-53 - 2**-106) alone rounds to 1.5 with an error just short of
# half an ulp; the three 3 * 2**-109 errors that follow are lost in the float
# sum of errors but carry the exact sum past the tie, so fsum rounds up. Only
# the bound on the lost part sends this row to fsum.
PAST_THE_TIE = [1.5, 2.0**-53 - 2.0**-106, *[3 * 2.0**-109] * 3, *[0.0] * 5]


def fsums(x):
    # math.fsum per row; the kernel reports a sum that overflows as a bad rate.
    try:
        return np.fromiter(map(math.fsum, x.tolist()), float, len(x))
    except OverflowError:
        raise ValueError("sum rate overflows the float range") from None


def outcome(sums, x):
    try:
        return sums(x).view(np.int64).tolist()
    except ValueError as exc:
        return str(exc)


def _cancellation(rng):
    # Each value next to its own negation, perturbed in the last bits.
    x = rng.standard_normal((100_000, 5))
    pair = np.concatenate([x, -x * (1.0 + rng.integers(-2, 3, x.shape) * 2.0**-52)], axis=1)
    return rng.permuted(pair, axis=1)


def _ties(rng):
    # A value in [1, 2) and small multiples of a quarter of its ulp: the exact
    # sums land on ties, on either side of them and on powers of two.
    x = rng.integers(-4, 5, (100_000, 10)) * 2.0**-54
    x[:, 0] = 1.0 + rng.integers(0, 2**52, 100_000) * 2.0**-52
    return x


# 1.05e6 rows in all, of every width in WIDTHS.
FIXED_GRID = {
    "uniform rates": lambda rng: rng.random((300_000, 10)) * 1e8,
    "kernel-like rates": lambda rng: 5e6 * np.log2(1.0 + 2.0**rng.uniform(2, 8, (100_000, 10))),
    "magnitudes 1e+-300": lambda rng: (rng.choice([-1.0, 1.0], (50_000, 37))
                                       * 10.0**rng.uniform(-300, 300, (50_000, 37))),
    "mixed signs": lambda rng: (rng.standard_normal((200_000, 2))
                                * 10.0**rng.integers(-3, 4, (200_000, 2))),
    "any single value": lambda rng: rng.integers(0, 2**64, (100_000, 1), dtype=np.uint64).view(
        float),
    "empty rows": lambda rng: np.empty((1_000, 0)),
    "ties": _ties,
    "subnormals": lambda rng: rng.integers(-2**20, 2**20, (100_000, 10)) * TINY,
    "near-total cancellation": _cancellation,
    "past the tie": lambda rng: np.tile(PAST_THE_TIE, (100, 1)),
}


@pytest.mark.parametrize("name", FIXED_GRID)
def test_row_fsums_equal_fsum_on_a_fixed_grid(name):
    x = FIXED_GRID[name](np.random.default_rng(2008))
    np.testing.assert_array_equal(_row_fsums(x).view(np.int64), fsums(x).view(np.int64))


SPECIAL = st.sampled_from([0.0, -0.0, TINY, -TINY, 2.0**-1022, 1.0, 1.5, 2.0**-53, 2.0**-54,
                           MAX, -MAX, 2.0**1023, math.inf, -math.inf, math.nan])
SCALES = st.sampled_from([1.0, -1.0, 2.0, 0.5, 2.0**-53, -2.0**-53, 2.0**-54, 3 * 2.0**-56])


@st.composite
def row_sets(draw):
    """Rows of one width over the full float range, built from a few atoms so
    that values repeat, cancel, tie and overflow together."""
    k = draw(st.sampled_from(WIDTHS))
    atoms = draw(st.lists(st.floats() | SPECIAL, min_size=1, max_size=4))
    value = st.builds(operator.mul, st.sampled_from(atoms), SCALES) | st.floats() | SPECIAL
    rows = draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=1, max_size=6))
    return np.array(rows, dtype=float).reshape(len(rows), k)


@settings(max_examples=400, deadline=None)
@given(x=row_sets())
@example(x=np.array([PAST_THE_TIE]))
@example(x=np.array([[1.0, 2.0**-53], [1.5, 2.0**-53], [-0.0, -0.0], [1.0, -1.0]]))
@example(x=np.array([[-0.0], [0.0], [TINY], [math.nan]]))
@example(x=np.array([[1.0, 2.0], [MAX, MAX], [math.inf, -math.inf]]))
@example(x=np.array([[MAX, 2.0**969, 2.0**969], [MAX, -2.0**960, 2.0**970]]))
# The float sums of this row stay finite, and its float result would pass the
# certificate, but the exact prefix sums pass MAX and fsum overflows.
@example(x=np.array([[MAX, *[2.0**969] * 3, -2.0**1020]]))
@example(x=np.array([[1e-320, 3e-320, -2e-320], [1.0, TINY, -1.0]]))
def test_row_fsums_equal_fsum(x):
    assert outcome(_row_fsums, x) == outcome(fsums, x)
