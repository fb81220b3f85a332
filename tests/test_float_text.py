"""The CSV's float texts: `_float_texts` against `repr`, byte for byte.

The fixed sets hold over a million values: random bit patterns (negatives,
subnormals, NaN payloads and infinities among them), uniforms scaled across
sixty decades, integers below 1e17, short decimals over the whole exponent
range, every power of two, subnormals, the values next to each notation
switch and to each power of ten, and the edges of the format. Ryu's table
columns are filled per exponent on first use, so batch order must not matter,
and the lazily filled columns must equal an eager build of all 2048.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpzsim import _float_text
from cpzsim._float_text import _digit_rows, _float_texts, _int_texts

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


def test_float_texts_heap_per_float_is_bounded():
    # One call on a comparison chunk's 9216 floats, exponents from -300 to
    # 299 (three-digit ones among them), its Ryu columns filled beforehand:
    # the temporaries and the rows it returns stay within 120 bytes a float.
    rng = np.random.default_rng(40)
    x = rng.random(9216) * 10.0 ** rng.integers(-300, 300, 9216)
    _float_texts(x)
    tracemalloc.start()
    try:
        _float_texts(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.size <= 120


@pytest.mark.parametrize("width", range(1, 20))
def test_int_texts_and_digit_rows_match_str_at_every_width(width):
    # Digits come out nine at a time as int32, so no part of a wide value may
    # overflow it: each width's extremes, the int32 edges where they have this
    # width, and up to 2**63 - 1, which has 19 digits.
    rng = np.random.default_rng(width)
    low, high = (10 ** (width - 1) if width > 1 else 0), min(10 ** width - 1, 2 ** 63 - 1)
    edges = [v for v in (2 ** 31 - 1, 2 ** 31, 2 ** 32, 10 ** 9) if low <= v <= high]
    x = np.array([low, high, *edges, *rng.integers(low, high, 200, endpoint=True).tolist()],
                 np.int64)
    assert [row.tobytes().lstrip(b"\0") for row in _int_texts(x)] == [
        str(v).encode("ascii") for v in x.tolist()]
    # Fewer digits than the rows are wide come zero-padded on the left.
    x = x // 10 ** rng.integers(0, width, x.size)
    rows = _digit_rows(x, np.empty((width, x.size), np.uint8))
    assert [row.tobytes() for row in rows.T] == [
        str(v).zfill(width).encode("ascii") for v in x.tolist()]


def eager_tables():
    """Ryu's table columns for all 2048 biased exponents at once, as the module
    built them before it filled them lazily: the reference for the lazy columns."""
    pow5 = [5 ** n for n in range(342)]
    bits5 = np.array([p.bit_length() for p in pow5])
    tables = [[(1 << p.bit_length() + 124) // p + 1 for p in pow5],
              [(p << 125) >> p.bit_length() for p in pow5[:326]]]
    mask = (1 << 28) - 1
    inv, split = (np.array([[m >> 28 * j & mask for m in t] for j in range(5)]) for t in tables)
    e2 = np.maximum(np.arange(2048), 1) - 1077
    nonnegative = e2 >= 0
    q = np.where(nonnegative, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (e2 < -1))
    i = np.where(nonnegative, 0, -e2 - q)
    limbs = np.where(nonnegative, inv[:, np.minimum(q, 341)], split[:, i])
    shift = np.where(nonnegative, bits5[np.minimum(q, 341)] + 124 - e2 + q, q - bits5[i] + 125)
    return limbs, shift - 4 * 28, np.where(nonnegative, q, q + e2), q


@pytest.fixture
def empty_tables(monkeypatch):
    """The module's table state as a fresh import leaves it: no column filled."""
    monkeypatch.setattr(_float_text, "_LIMBS", np.zeros((5, 2048), np.int64))
    for name in ("_SHIFT", "_E10", "_Q"):
        monkeypatch.setattr(_float_text, name, np.zeros(2048, np.int64))
    monkeypatch.setattr(_float_text, "_READY", np.zeros(2048, bool))


def one_per_exponent():
    """A value of every biased exponent 1-2046 with a random mantissa, subnormals,
    both zeros and the largest finite double."""
    rng = np.random.default_rng(33)
    bits = np.arange(1, 2047, dtype=np.int64) << 52 | rng.integers(0, 1 << 52, 2046)
    subnormals = rng.integers(1, 1 << 52, 64, dtype=np.int64)
    return np.concatenate([bits.view(np.float64), subnormals.view(np.float64),
                           [0.0, -0.0, 1.7976931348623157e308]])


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_every_exponent_matches_repr_in_any_batch_order(empty_tables, order):
    x = np.sort(one_per_exponent())
    x = {"ascending": x, "descending": x[::-1],
         "shuffled": np.random.default_rng(7).permutation(x)}[order]
    for batch in np.array_split(x, 37):
        got = padded(_float_texts(batch), 24)
        assert (got == repr_rows(batch, 24)).all(), [repr(v) for v in batch.tolist()]


def test_lazy_columns_equal_an_eager_fill(empty_tables):
    for batch in np.array_split(np.random.default_rng(1).permutation(one_per_exponent()), 11):
        _float_texts(batch)
    # Every finite exponent is filled; 2047 (inf and NaN) is formatted by repr.
    assert _float_text._READY[:2047].all() and not _float_text._READY[2047]
    for lazy, eager in zip((_float_text._LIMBS, _float_text._SHIFT, _float_text._E10,
                            _float_text._Q), eager_tables()):
        assert np.array_equal(lazy[..., :2047], eager[..., :2047])


def test_import_fills_no_column_and_runs_leave_numpy_ma_unloaded(tmp_path):
    # A fresh interpreter: the module builds no table at import, and a
    # comparison and a sector sweep, CSV and sidecar written, load no numpy.ma
    # (plain np.unique's first call imports it).
    src = os.path.dirname(os.path.dirname(_float_text.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from cpzsim import _float_text, cli\n"
            "print(int(_float_text._READY.sum()))\n"
            f"cli.main(['simulate', '--trials', '50', '--out', {str(tmp_path / 'a.csv')!r}])\n"
            "cli.main(['sweep', '--variable', 'sectors', '--values', '1,6', '--trials', '50',\n"
            f"          '--out', {str(tmp_path / 'b.csv')!r}])\n"
            "print(int(_float_text._READY.sum()) > 0, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "0" and proc.stdout.splitlines()[-1] == "True False"
