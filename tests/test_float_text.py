"""The CSV's float texts: `_float_texts` against `repr`, byte for byte.

The fixed sets hold over a million values: random bit patterns (negatives,
subnormals, NaN payloads and infinities among them), uniforms scaled across
sixty decades, integers below 1e17, short decimals over the whole exponent
range, every power of two, subnormals, the values next to each notation
switch and to each power of ten, and the edges of the format.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpzsim._float_text import _float_texts

EDGES = [5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, 1e16,
         9999999999999998.0, 1e-5, 1e-4, 1e22, 1e23, 1e-300, 9.5e-5, 0.1, 0.3, 1 / 3,
         2.5, 0.5, 1.0, 123456789012345680.0, 0.0, -0.0, math.inf, -math.inf, math.nan,
         math.copysign(math.nan, -1), 2.0 ** 53, 2.0 ** 54 + 2, 5e-310, 1e100]


def neighbours(x):
    """Each value with the doubles one ulp either side."""
    with np.errstate(over="ignore"):  # past the largest double is inf
        return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def fixed_sets():
    rng = np.random.default_rng(20181)
    decades = 10.0 ** np.arange(-323, 309)
    return {
        "bit patterns": rng.integers(-2 ** 63, 2 ** 63 - 1, 400_000, np.int64).view(np.float64),
        "scaled uniforms": rng.random(200_000) * 10.0 ** rng.integers(-30, 31, 200_000),
        "integers": rng.integers(0, 10 ** 17, 100_000).astype(np.float64),
        "short decimals": np.array([float(f"{m}e{e}") for m, e in zip(
            rng.integers(1, 10 ** rng.integers(1, 8, 100_000)), rng.integers(-330, 301, 100_000))]),
        "powers of two": np.ldexp(np.repeat([1.0, -1.0], 2098), np.tile(np.arange(-1074, 1024), 2)),
        "subnormals": rng.integers(1, 2 ** 52, 100_000, dtype=np.int64).view(np.float64),
        "powers of ten": neighbours(np.concatenate([decades, -decades, 5 * decades[:-1]])),
        "notation switches": neighbours(np.array([1e16, 1e-4, 1e-5, 1e17, 1e15, 1e-3, 9.999e15])),
        "three-digit exponents": rng.random(100_000) * 10.0 ** rng.choice(
            np.r_[-323:-99, 100:309], 100_000),
        "edges": neighbours(np.array(EDGES)),
    }


def repr_rows(x, width):
    texts = np.array([repr(v).encode("ascii") for v in x.tolist()], dtype=f"S{width}")
    return texts[:, None].view(np.uint8)


def padded(rows, width):
    out = np.zeros((len(rows), width), np.uint8)
    out[:, :rows.shape[1]] = rows
    return out


def test_fixed_sets_match_repr():
    sets = fixed_sets()
    assert sum(map(len, sets.values())) >= 1_000_000
    for name, x in sets.items():
        got = padded(_float_texts(x), 24)
        bad = np.flatnonzero((got != repr_rows(x, 24)).any(axis=1))
        assert not bad.size, (name, [(repr(x[i]), got[i].tobytes()) for i in bad[:5]])


def test_width_is_the_longest_text():
    assert _float_texts(np.array([1.5, -2.2250738585072014e-308])).shape == (2, 24)
    assert _float_texts(np.array([0.0])).shape == (1, 3)
    assert _float_texts(np.array([math.nan, -math.inf])).shape == (2, 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True) | st.sampled_from(EDGES), min_size=1, max_size=50))
@example([math.copysign(math.nan, -1), math.inf, -math.inf, 0.0, -0.0, 5e-324])
def test_any_floats_match_repr(values):
    x = np.array(values, dtype=np.float64)
    rows = _float_texts(x)
    assert [row.tobytes().rstrip(b"\0") for row in rows] == [
        repr(v).encode("ascii") for v in x.tolist()]
